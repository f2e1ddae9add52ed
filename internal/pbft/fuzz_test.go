package pbft_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// pbftMessage is what every consensus payload is to a codec.
type pbftMessage interface {
	consensus.Payload
	UnmarshalCanonical(*codec.Reader) error
}

// newPBFTMessage returns an empty payload of the given kind, nil for a
// kind this package does not define.
func newPBFTMessage(kind consensus.MsgKind) pbftMessage {
	switch kind {
	case consensus.KindPrePrepare:
		return new(pbft.PrePrepare)
	case consensus.KindPrepare:
		return new(pbft.Prepare)
	case consensus.KindCommit:
		return new(pbft.Commit)
	case consensus.KindViewChange:
		return new(pbft.ViewChange)
	case consensus.KindNewView:
		return new(pbft.NewView)
	case consensus.KindFetch:
		return new(pbft.Fetch)
	default:
		return nil
	}
}

// FuzzDecodePBFTMessage: a body the decoder of its kind accepts encodes
// back to the same bytes. Votes are compared, stored in evidence and
// WAL proofs, and signed over as bytes, so one message must have one
// encoding — in particular a slot number has one uvarint form, the
// minimal one. And a list — of transaction IDs or bodies, envelopes,
// prepared proofs or certificate votes — is refused, before
// anything is allocated for it, when its count claims more elements than
// the bytes after it can hold: for every list, with as many elements
// claimed as bytes follow, and for whatever the fuzzer finds as an
// allocation that stays within a constant times the input.
func FuzzDecodePBFTMessage(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	tx := clientTx(0, 1)
	block := types.NewBlock(types.BlockHeader{
		Height: 17, Era: 1, View: 300, Seq: 17,
		PrevHash: gcrypto.HashBytes([]byte("parent")), Proposer: kp.Address(), Timestamp: epoch,
	}, []types.Transaction{*tx})
	pp := pbft.NewPrePrepare(1, 300, 1<<40, block)
	slot := pp.SlotHeader
	prepare := consensus.EncodeEnvelope(consensus.Seal(kp, &pbft.Prepare{SlotHeader: slot}))
	prePrepare := consensus.EncodeEnvelope(consensus.Seal(kp, pp))
	stable := &types.Certificate{BlockHash: block.Hash(), Era: 1, View: 299, Votes: []types.Vote{{Endorser: kp.Address(), Signature: kp.Sign([]byte("vote"))}}}
	viewChange := &pbft.ViewChange{Era: 1, NewView: 301, LastStable: 16, StableCert: stable, Prepared: []pbft.PreparedProof{{
		Seq: 17, View: 300, Digest: block.Hash(), PrePrepareEnv: prePrepare, PrepareEnvs: [][]byte{prepare, prepare},
	}}}
	for _, m := range []pbftMessage{
		pp,
		&pbft.Prepare{SlotHeader: slot},
		&pbft.Commit{SlotHeader: slot},
		viewChange,
		&pbft.NewView{Era: 1, View: 301, ViewChangeEnvs: [][]byte{consensus.EncodeEnvelope(consensus.Seal(kp, viewChange))}, PrePrepares: [][]byte{prePrepare}},
		&pbft.Fetch{SlotHeader: slot, IDs: pp.TxIDs},
		&pbft.Fetch{SlotHeader: slot, Txs: block.Txs},
	} {
		f.Add(uint8(m.Kind()), codec.Encode(m))
	}
	// Era 0 padded to two bytes, and a view of eleven bytes.
	f.Add(uint8(consensus.KindCommit), append([]byte{0x80, 0x00, 0x00, 0x01}, slot.Digest[:]...))
	f.Add(uint8(consensus.KindPrepare), append(append([]byte{0x00}, bytes.Repeat([]byte{0xff}, 11)...), slot.Digest[:]...))
	// As many IDs claimed as bytes follow; as many bodies.
	const claim = 1 << 14
	counted := func(m pbftMessage, cut int) []byte {
		b := codec.Encode(m)
		b = binary.AppendUvarint(b[:len(b)-cut:len(b)-cut], claim)
		return append(b, make([]byte, claim)...)
	}
	f.Add(uint8(consensus.KindPrePrepare), counted(&pbft.PrePrepare{SlotHeader: slot, Header: block.Header}, 1))
	f.Add(uint8(consensus.KindFetch), counted(&pbft.Fetch{SlotHeader: slot}, 1))
	// The view-change lists, each claiming as many envelopes, proofs or
	// certificate votes as bytes follow: refused at the count, since each
	// element takes more.
	for _, pair := range [][2]pbftMessage{
		{&pbft.ViewChange{Era: 1}, &pbft.ViewChange{Era: 1, Prepared: make([]pbft.PreparedProof, 3)}},
		{&pbft.ViewChange{Era: 1, StableCert: &types.Certificate{}}, &pbft.ViewChange{Era: 1, StableCert: &types.Certificate{Votes: make([]types.Vote, 3)}}},
		{&pbft.ViewChange{Prepared: make([]pbft.PreparedProof, 1)}, &pbft.ViewChange{Prepared: []pbft.PreparedProof{{PrepareEnvs: make([][]byte, 3)}}}},
		{&pbft.NewView{Era: 1}, &pbft.NewView{Era: 1, ViewChangeEnvs: make([][]byte, 3)}},
		{&pbft.NewView{Era: 1}, &pbft.NewView{Era: 1, PrePrepares: make([][]byte, 3)}},
	} {
		a, b := codec.Encode(pair[0]), codec.Encode(pair[1])
		at := 0
		for a[at] == b[at] {
			at++ // to the list's count
		}
		over := append(binary.AppendUvarint(b[:at:at], claim), make([]byte, claim)...)
		m := newPBFTMessage(pair[0].Kind())
		if grew, err := allocated(func() error { return m.UnmarshalCanonical(codec.NewReader(over)) }); err == nil || grew > 64<<10 {
			f.Fatalf("%v list count at byte %d claiming %d elements in %d bytes: %v after %d bytes allocated", m.Kind(), at, claim, claim, err, grew)
		}
		f.Add(uint8(m.Kind()), over)
	}

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		m := newPBFTMessage(consensus.MsgKind(kind))
		if m == nil {
			return
		}
		r := codec.NewReader(data)
		grew, err := allocated(func() error { return m.UnmarshalCanonical(r) })
		bound := 32 * len(data)
		if over := overCounted(consensus.MsgKind(kind), data); over != "" {
			if err == nil {
				t.Fatalf("%v decoded with %s", m.Kind(), over)
			}
			bound = 2 * len(data)
		}
		if grew > uint64(bound+64<<10) {
			t.Fatalf("%v allocated %d bytes decoding %d bytes", m.Kind(), grew, len(data))
		}
		if err != nil || r.Finish() != nil {
			return
		}
		if again := codec.Encode(m); !bytes.Equal(again, data) {
			t.Fatalf("%v decode/encode not canonical:\n in:  %x\n out: %x", m.Kind(), data, again)
		}
	})
}

// allocated runs decode and reports what it allocated.
func allocated(decode func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// overCounted walks a pre-prepare's or fetch's fields up to each list
// and names the first whose count claims more elements than the bytes
// after it hold, or returns "". The Fetch's second list counts
// transactions, which the fetch shares with blocks, and is bounded by
// their shortest encoding.
func overCounted(kind consensus.MsgKind, data []byte) string {
	r := codec.NewReader(data)
	var slot consensus.SlotHeader
	if slot.UnmarshalCanonical(r) != nil {
		return ""
	}
	var hdr types.BlockHeader
	switch kind {
	case consensus.KindPrePrepare:
		if hdr.UnmarshalCanonical(r) != nil {
			return ""
		}
	case consensus.KindFetch:
	default:
		return ""
	}
	ids := r.Uvarint()
	if r.Err() != nil {
		return ""
	}
	if ids > uint64(r.Remaining()/len(gcrypto.Hash{})) {
		return fmt.Sprintf("%d IDs in %d bytes", ids, r.Remaining())
	}
	if kind != consensus.KindFetch {
		return ""
	}
	r.ReadRaw(int(ids) * len(gcrypto.Hash{}))
	if txs := r.Uvarint(); r.Err() == nil && txs > uint64(r.Remaining()/types.MinTxSize) {
		return fmt.Sprintf("%d transactions in %d bytes", txs, r.Remaining())
	}
	return ""
}
