package codec_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/pbft"
	"gpbft/internal/shard"
	"gpbft/internal/store"
	"gpbft/internal/transport"
	"gpbft/internal/types"
)

// goldenFile holds one encoding of a populated value of every wire
// format, one "name hex" line each. The bytes are the protocol: the
// paper's communication cost is their length, and a replica of another
// build must read them. The file is never regenerated; a format that
// changes on purpose is a new format with a new line.
const goldenFile = "testdata/wire.golden"

// readGolden returns the golden encodings by name.
func readGolden(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hexed, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		b, err := hex.DecodeString(hexed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenCase is one format: the encoding of its value, and a decode of
// given bytes that encodes the result again.
type goldenCase struct {
	name  string
	enc   []byte
	again func([]byte) ([]byte, error)
}

// unmarshaler is what consensus.Open decodes a payload through.
type unmarshaler interface {
	UnmarshalCanonical(*codec.Reader) error
}

// payloadCase encodes m and decodes into a fresh value from fresh.
func payloadCase[P interface {
	codec.Marshaler
	unmarshaler
}](name string, m P, fresh func() P) goldenCase {
	return goldenCase{name, codec.Encode(m), func(b []byte) ([]byte, error) {
		v := fresh()
		r := codec.NewReader(b)
		if err := v.UnmarshalCanonical(r); err != nil {
			return nil, err
		}
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return codec.Encode(v), nil
	}}
}

// viaDecode pairs an encoder's bytes with its package's whole decode.
func viaDecode[T any](name string, enc func(*T) []byte, v *T, dec func([]byte) (*T, error)) goldenCase {
	return goldenCase{name, enc(v), func(b []byte) ([]byte, error) {
		got, err := dec(b)
		if err != nil {
			return nil, err
		}
		return enc(got), nil
	}}
}

// goldenCases builds one populated value of every format: every list
// non-empty, every optional field once present and once absent, each
// block-sync subtype, and an envelope of each of the three sender forms.
func goldenCases() []goldenCase {
	kps := []*gcrypto.KeyPair{
		gcrypto.DeterministicKeyPair(0), gcrypto.DeterministicKeyPair(1),
		gcrypto.DeterministicKeyPair(2), gcrypto.DeterministicKeyPair(3),
	}
	at := time.Unix(1_600_000_000, 123_456_789).UTC()
	here := geo.Point{Lng: 114.1795, Lat: 22.3193}
	cell := geo.MustEncode(here, geo.CSCPrecision)
	hash := func(s string) gcrypto.Hash { return gcrypto.HashBytes([]byte(s)) }
	sign := func(i int, typ types.TxType, payload []byte) types.Transaction {
		tx := types.Transaction{
			Type: typ, Nonce: uint64(40 + i), Payload: payload, Fee: uint64(3 + i),
			Geo: types.GeoInfo{Location: here, Timestamp: at.Add(time.Duration(i) * time.Second)},
		}
		tx.Sign(kps[i%len(kps)])
		return tx
	}

	witness := &types.WitnessStatement{Subject: kps[1].Address(), Geohash: cell, Seen: true}
	txs := []types.Transaction{
		sign(0, types.TxNormal, []byte("temperature=21.5")),
		sign(1, types.TxLocationReport, nil),
		sign(2, types.TxWitness, types.EncodeWitnessStatement(witness)),
	}
	header := types.BlockHeader{
		Height: 5, Era: 2, View: 1, Seq: 5, PrevHash: hash("parent"),
		Proposer: kps[0].Address(), Timestamp: at,
	}
	bare := types.NewBlock(header, txs)
	cert := &types.Certificate{BlockHash: bare.Hash(), Era: 2, View: 1}
	for _, kp := range kps[:3] {
		msg := types.CommitVoteBytes(kp.Address(), 2, 1, 5, bare.Hash())
		cert.Votes = append(cert.Votes, types.Vote{Endorser: kp.Address(), Signature: kp.Sign(msg)})
	}
	certified := *bare
	certified.Cert = cert

	slot := consensus.SlotHeader{Era: 2, View: 1, Seq: 5, Digest: bare.Hash()}
	seal := func(kp int, p consensus.Payload) *consensus.Envelope {
		env := consensus.Seal(kps[kp], p)
		env.Sender = uint64(kp)
		return env
	}
	pp := pbft.NewPrePrepare(2, 1, 5, bare)
	ppEnv := consensus.EncodeEnvelope(seal(0, pp))
	prepares := [][]byte{
		consensus.EncodeEnvelope(seal(1, &pbft.Prepare{SlotHeader: slot})),
		consensus.EncodeEnvelope(seal(2, &pbft.Prepare{SlotHeader: slot})),
	}
	proof := pbft.PreparedProof{Seq: 5, View: 1, Digest: bare.Hash(), PrePrepareEnv: ppEnv, PrepareEnvs: prepares}
	proof6 := pbft.PreparedProof{Seq: 6, View: 1, Digest: hash("six"), PrePrepareEnv: ppEnv, PrepareEnvs: prepares[:1]}
	vc := &pbft.ViewChange{Era: 2, NewView: 2, LastStable: 4, StableCert: cert, Prepared: []pbft.PreparedProof{proof, proof6}}
	vcNoCert := &pbft.ViewChange{Era: 2, NewView: 3, LastStable: 0, Prepared: []pbft.PreparedProof{proof6}}
	var vcEnvs [][]byte
	for i := range kps[:3] {
		vcEnvs = append(vcEnvs, consensus.EncodeEnvelope(seal(i, vc)))
	}

	receipt := shard.Receipt{
		ID: txs[0].ID(), Source: "wecn", Dest: "wecp", Recipient: kps[2].Address(), Amount: 10, LockHeight: 3,
	}
	receipt2 := receipt
	receipt2.ID, receipt2.Amount, receipt2.LockHeight = txs[1].ID(), 11, 4

	state := &ledger.ChainState{
		GenesisHash: hash("genesis"), Era: 2, Boundary: at.Add(time.Minute), Base: *bare,
		Endorsers: []types.EndorserInfo{
			{Address: kps[0].Address(), PubKey: kps[0].Public(), Geohash: cell},
			{Address: kps[1].Address(), PubKey: kps[1].Public(), Geohash: cell[:9] + "1"},
		},
		Accounts: []ledger.AccountRecord{
			{Address: kps[0].Address(), PubKey: kps[0].Public()},
			{Address: kps[2].Address(), PubKey: kps[2].Public()},
		},
		EverEndorsers: []gcrypto.Address{kps[0].Address(), kps[1].Address()},
		Banned:        []ledger.BannedEntry{{Address: kps[3].Address(), Evidence: hash("evidence")}},
		Evidence:      []gcrypto.Hash{hash("evidence")},
		TableLatest:   at.Add(30 * time.Second),
		Devices: []ledger.DeviceState{{
			Address: kps[0].Address().String(), Anchor: at, LastCSC: cell,
			Entries: []ledger.DeviceEntry{
				{Geohash: cell, Timestamp: at, Timer: 3 * time.Second},
				{Geohash: cell, Timestamp: at.Add(10 * time.Second), Timer: 13 * time.Second},
			},
		}},
		Witnesses: []ledger.WitnessRecord{{
			Witness: kps[2].Address(), Subject: kps[1].Address(), Geohash: cell, Seen: true, Timestamp: at,
			Loc: ledger.TxLocation{Height: 5, TxIndex: 2},
		}},
		Balances:       []ledger.BalanceRecord{{Address: kps[0].Address(), Balance: 70, Produced: 1}},
		TxIndex:        []ledger.TxIndexRecord{{ID: txs[0].ID(), Loc: ledger.TxLocation{Height: 5, TxIndex: 0}}},
		Outbound:       []shard.Receipt{receipt},
		Applied:        []ledger.AppliedReceipt{{ID: hash("applied"), Loc: ledger.TxLocation{Height: 4, TxIndex: 1}}},
		ReceiptDupes:   2,
		LockRejects:    1,
		Anchors:        []shard.AnchorRecord{{Region: "wecn", Era: 1, Height: 4, Root: hash("anchor")}},
		AnchorReceipts: []shard.Receipt{receipt2},
	}

	request := pbft.NewRequest(kps[3], &txs[0])
	relayEntries := []consensus.RelayEntry{
		{Hop: 1, Wire: consensus.EncodeEnvelope(request)},
		{Hop: 2, Wire: prepares[0]},
	}
	wal := &store.WALRecord{Kind: store.WALPrepared, Era: 2, View: 1, Seq: 5, Digest: bare.Hash(), Data: []byte("prepared")}
	envelope := func(name string, env *consensus.Envelope) goldenCase {
		return viaDecode(name, consensus.EncodeEnvelope, env, consensus.DecodeEnvelope)
	}

	return []goldenCase{
		viaDecode("types/tx", types.EncodeTx, &txs[0], types.DecodeTx),
		viaDecode("types/block", types.EncodeBlock, &certified, types.DecodeBlock),
		viaDecode("types/block-uncertified", types.EncodeBlock, bare, types.DecodeBlock),
		viaDecode("types/witness", types.EncodeWitnessStatement, witness, types.DecodeWitnessStatement),

		envelope("consensus/envelope-intra-era", seal(2, &pbft.Prepare{SlotHeader: slot})),
		envelope("consensus/envelope-sealed", consensus.Seal(kps[1], &core.EraAnnounce{NewEra: 3, Height: 90})),
		envelope("consensus/envelope-by-channel", request),
		{"consensus/relay-body", consensus.EncodeRelayBody(relayEntries), func(b []byte) ([]byte, error) {
			entries, err := consensus.DecodeRelayBody(b)
			return consensus.EncodeRelayBody(entries), err
		}},

		payloadCase("pbft/request", &pbft.Request{Tx: txs[0]}, func() *pbft.Request { return new(pbft.Request) }),
		payloadCase("pbft/pre-prepare", pp, func() *pbft.PrePrepare { return new(pbft.PrePrepare) }),
		payloadCase("pbft/prepare", &pbft.Prepare{SlotHeader: slot}, func() *pbft.Prepare { return new(pbft.Prepare) }),
		payloadCase("pbft/commit", &pbft.Commit{SlotHeader: slot}, func() *pbft.Commit { return new(pbft.Commit) }),
		payloadCase("pbft/fetch", &pbft.Fetch{SlotHeader: slot, IDs: pp.TxIDs, Txs: txs[:2]}, func() *pbft.Fetch { return new(pbft.Fetch) }),
		payloadCase("pbft/view-change", vc, func() *pbft.ViewChange { return new(pbft.ViewChange) }),
		payloadCase("pbft/view-change-uncertified", vcNoCert, func() *pbft.ViewChange { return new(pbft.ViewChange) }),
		payloadCase("pbft/new-view", &pbft.NewView{Era: 2, View: 2, ViewChangeEnvs: vcEnvs, PrePrepares: [][]byte{ppEnv}},
			func() *pbft.NewView { return new(pbft.NewView) }),
		payloadCase("pbft/tx-rejected", &pbft.TxRejected{TxID: txs[0].ID(), Reason: types.RejectShed, RetryAfter: 250 * time.Millisecond},
			func() *pbft.TxRejected { return new(pbft.TxRejected) }),

		payloadCase("core/era-announce", &core.EraAnnounce{NewEra: 3, Height: 90}, func() *core.EraAnnounce { return new(core.EraAnnounce) }),
		payloadCase("core/sync-request", &core.SyncRequest{FromHeight: 9}, func() *core.SyncRequest { return new(core.SyncRequest) }),
		payloadCase("core/sync-response", &core.SyncResponse{Blocks: []types.Block{certified, *bare}},
			func() *core.SyncResponse { return new(core.SyncResponse) }),
		payloadCase("core/head-request", &core.HeadRequest{}, func() *core.HeadRequest { return new(core.HeadRequest) }),
		payloadCase("core/head-response", &core.HeadResponse{Height: 90, SnapHeight: 64, SnapRoot: state.Root()},
			func() *core.HeadResponse { return new(core.HeadResponse) }),
		payloadCase("core/snapshot-request", &core.SnapshotRequest{Height: 64}, func() *core.SnapshotRequest { return new(core.SnapshotRequest) }),
		payloadCase("core/snapshot-response", &core.SnapshotResponse{Height: 64, Data: []byte("snapshot")},
			func() *core.SnapshotResponse { return new(core.SnapshotResponse) }),

		viaDecode("shard/receipt", shard.EncodeReceipt, &receipt, shard.DecodeReceipt),
		viaDecode("shard/transfer", shard.EncodeTransfer,
			&shard.Transfer{Source: "wecn", Dest: "wecp", Recipient: kps[2].Address(), Amount: 10}, shard.DecodeTransfer),
		viaDecode("shard/checkpoint", shard.EncodeCheckpoint,
			&shard.RegionCheckpoint{Region: "wecn", Era: 1, Height: 4, Root: hash("root"), Receipts: []shard.Receipt{receipt, receipt2}},
			shard.DecodeCheckpoint),
		viaDecode("evidence/record", evidence.Encode, &evidence.Record{
			Kind:      evidence.DoubleSign,
			Offenders: []gcrypto.Address{kps[1].Address()},
			Proofs:    [][]byte{kps[1].Public(), prepares[0], prepares[1]},
		}, evidence.Decode),

		viaDecode("ledger/chain-state", ledger.EncodeChainState, state, ledger.DecodeChainState),
		viaDecode("store/snapshot", store.EncodeSnapshot, store.NewSnapshot(state, kps[0]), store.DecodeSnapshot),
		payloadCase("store/wal-record", wal, func() *store.WALRecord { return new(store.WALRecord) }),
		viaDecode("transport/hello", transport.EncodeHello, transport.NewHello(kps[0]), transport.DecodeHello),
	}
}

// TestWireGolden pins every format to the bytes in goldenFile: each
// encoder reproduces them, and decoding them then encoding the result
// gives them back. A field moved on both sides at once round-trips and
// still fails here.
func TestWireGolden(t *testing.T) {
	golden := readGolden(t, goldenFile)
	for _, c := range goldenCases() {
		want, ok := golden[c.name]
		if !ok {
			t.Errorf("no golden line for %s; its bytes are:\n%s %x", c.name, c.name, c.enc)
			continue
		}
		if !bytes.Equal(c.enc, want) {
			t.Errorf("%s: encoding moved\n got:  %x\n want: %x", c.name, c.enc, want)
		}
		again, err := c.again(want)
		if err != nil {
			t.Errorf("%s: golden bytes do not decode: %v", c.name, err)
			continue
		}
		if !bytes.Equal(again, want) {
			t.Errorf("%s: decode then encode moved the bytes\n got:  %x\n want: %x", c.name, again, want)
		}
	}
}
