package pbft_test

import (
	"bytes"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/pbft"
	"gpbft/internal/transport"
	"gpbft/internal/types"
)

// TestVoteWireSize pins what a round's messages weigh at sequence 1000,
// canonical (what is stored, relayed and metered by the simulator) and
// as the TCP frame that carries it: a round is O(n²) of the votes,
// so a byte there is n² bytes a block, and a transaction crosses each
// link once in its relay and 32 bytes more in the pre-prepare that
// orders it. A vote is kind 1 + committee position 1 + body 1 + 36 +
// seal 1 + 64. A relayed request is kind, transaction and an empty
// seal: it names no sender.
func TestVoteWireSize(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	txs := make([]types.Transaction, 32)
	for i := range txs {
		txs[i] = types.Transaction{Type: types.TxNormal, Nonce: uint64(i + 1), Payload: []byte("sensor-reading"), Fee: 10,
			Geo: types.GeoInfo{Location: geo.Point{Lng: 114.17, Lat: 22.30}, Timestamp: time.Unix(1565025600, 0)}}
		txs[i].Sign(kp)
	}
	header := types.BlockHeader{Height: 1000, Era: 3, View: 1, Seq: 1000, Proposer: kp.Address(), Timestamp: time.Unix(1565025600, 0)}
	block := types.NewBlock(header, txs[:1])
	slot := consensus.SlotHeader{Era: 3, View: 1, Seq: 1000, Digest: block.Hash()}
	member := func(p consensus.Payload) *consensus.Envelope {
		env := consensus.Seal(kp, p)
		env.Sender = 39 // the last of a 40-member committee
		return env
	}
	for _, c := range []struct {
		name             string
		env              *consensus.Envelope
		canonical, frame int
	}{
		{"prepare", member(&pbft.Prepare{SlotHeader: slot}), 104, 108},
		{"commit", member(&pbft.Commit{SlotHeader: slot}), 104, 108},
		{"relayed request", pbft.NewRequest(kp, &txs[0]), 178, 182},
		{"pre-prepare of one tx", member(pbft.NewPrePrepare(3, 1, 1000, block)), 277, 281},
		{"pre-prepare of 32 txs", member(pbft.NewPrePrepare(3, 1, 1000, types.NewBlock(header, txs))), 1269, 1273},
	} {
		var frame bytes.Buffer
		if err := transport.WriteFrame(&frame, c.env); err != nil {
			t.Fatal(err)
		}
		if n := len(consensus.EncodeEnvelope(c.env)); n != c.canonical || frame.Len() != c.frame {
			t.Errorf("%s: %d bytes canonical and %d framed, want %d and %d", c.name, n, frame.Len(), c.canonical, c.frame)
		}
	}
}
