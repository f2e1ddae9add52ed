package evidence_test

import (
	"bytes"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// FuzzDecodeEvidence feeds arbitrary bytes through Decode, Verify and
// re-encode. Evidence records arrive from the network inside
// transactions, so the decoder must never panic, and anything it
// accepts must round-trip canonically (otherwise two replicas could
// compute different IDs for one committed record).
func FuzzDecodeEvidence(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	a := consensus.Seal(kp, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, View: 0, Seq: 2, Digest: gcrypto.HashBytes([]byte("a"))}})
	b := consensus.Seal(kp, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, View: 0, Seq: 2, Digest: gcrypto.HashBytes([]byte("b"))}})
	if rec, err := evidence.NewDoubleSign(a, b); err == nil {
		f.Add(evidence.Encode(rec))
	}

	spot := geo.Point{Lng: 114.1712, Lat: 22.3015}
	ts := time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)
	mkReport := func(k *gcrypto.KeyPair) *types.Transaction {
		tx := &types.Transaction{
			Type:  types.TxLocationReport,
			Nonce: 1,
			Geo:   types.GeoInfo{Location: spot, Timestamp: ts},
		}
		tx.Sign(k)
		return tx
	}
	if rec, err := evidence.NewSybilSameCell(
		mkReport(gcrypto.DeterministicKeyPair(2)),
		mkReport(gcrypto.DeterministicKeyPair(3)),
		2*time.Second,
	); err == nil {
		f.Add(evidence.Encode(rec))
	}
	f.Add([]byte("gpbft/evidence/v1"))
	f.Add([]byte{0x11, 0x67, 0x70, 0x62, 0x66, 0x74})

	ctx := evidence.VerifyContext{
		SybilWindow:     2 * time.Second,
		MinWitnesses:    2,
		CredibleWitness: func(gcrypto.Address) bool { return true },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := evidence.Decode(data)
		if err != nil {
			return
		}
		// Shape limits must hold for anything the decoder accepts.
		if len(rec.Offenders) == 0 || len(rec.Offenders) > evidence.MaxOffenders {
			t.Fatalf("decoded %d offenders outside [1,%d]", len(rec.Offenders), evidence.MaxOffenders)
		}
		if len(rec.Proofs) == 0 || len(rec.Proofs) > evidence.MaxProofs {
			t.Fatalf("decoded %d proofs outside [1,%d]", len(rec.Proofs), evidence.MaxProofs)
		}
		// Verification must be panic-free on adversarial input.
		_ = rec.Verify(ctx)
		_ = rec.Describe()
		// Canonical round-trip: re-encoding an accepted record must
		// reproduce the input bytes exactly.
		if again := evidence.Encode(rec); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not canonical:\n in:  %x\n out: %x", data, again)
		}
	})
}
