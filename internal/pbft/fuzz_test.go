package pbft_test

import (
	"bytes"
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
	case consensus.KindCheckpoint:
		return new(pbft.Checkpoint)
	case consensus.KindViewChange:
		return new(pbft.ViewChange)
	case consensus.KindNewView:
		return new(pbft.NewView)
	default:
		return nil
	}
}

// FuzzDecodePBFTMessage: a body the decoder of its kind accepts encodes
// back to the same bytes. Votes are compared, stored in evidence and
// WAL proofs, and signed over as bytes, so one message must have one
// encoding — in particular a slot number has one uvarint form, the
// minimal one.
func FuzzDecodePBFTMessage(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	block := types.NewBlock(types.BlockHeader{
		Height: 17, Era: 1, View: 300, Seq: 17,
		PrevHash: gcrypto.HashBytes([]byte("parent")), Proposer: kp.Address(), Timestamp: epoch,
	}, []types.Transaction{*clientTx(0, 1)})
	slot := consensus.SlotHeader{Era: 1, View: 300, Seq: 1 << 40, Digest: block.Hash()}
	prepare := consensus.EncodeEnvelope(consensus.Seal(kp, &pbft.Prepare{SlotHeader: slot}))
	prePrepare := consensus.EncodeEnvelope(consensus.Seal(kp, &pbft.PrePrepare{SlotHeader: slot, Block: *block}))
	viewChange := &pbft.ViewChange{Era: 1, NewView: 301, LastStable: 16, Prepared: []pbft.PreparedProof{{
		Seq: 17, View: 300, Digest: block.Hash(), PrePrepareEnv: prePrepare, PrepareEnvs: [][]byte{prepare, prepare},
	}}}
	for _, m := range []pbftMessage{
		&pbft.PrePrepare{SlotHeader: slot, Block: *block},
		&pbft.Prepare{SlotHeader: slot},
		&pbft.Commit{SlotHeader: slot},
		&pbft.Checkpoint{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 16, Digest: block.Hash()}},
		viewChange,
		&pbft.NewView{Era: 1, View: 301, ViewChangeEnvs: [][]byte{consensus.EncodeEnvelope(consensus.Seal(kp, viewChange))}, PrePrepares: [][]byte{prePrepare}},
	} {
		f.Add(uint8(m.Kind()), codec.Encode(m))
	}
	// Era 0 padded to two bytes, and a view of eleven bytes.
	f.Add(uint8(consensus.KindCommit), append([]byte{0x80, 0x00, 0x00, 0x01}, slot.Digest[:]...))
	f.Add(uint8(consensus.KindPrepare), append(append([]byte{0x00}, bytes.Repeat([]byte{0xff}, 11)...), slot.Digest[:]...))

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		m := newPBFTMessage(consensus.MsgKind(kind))
		if m == nil {
			return
		}
		r := codec.NewReader(data)
		if m.UnmarshalCanonical(r) != nil || r.Finish() != nil {
			return
		}
		if again := codec.Encode(m); !bytes.Equal(again, data) {
			t.Fatalf("%v decode/encode not canonical:\n in:  %x\n out: %x", m.Kind(), data, again)
		}
	})
}
