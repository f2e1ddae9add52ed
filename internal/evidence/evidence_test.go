package evidence_test

import (
	"errors"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

var epoch = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)

func ctxAllowAll() evidence.VerifyContext {
	return evidence.VerifyContext{
		SybilWindow:  2 * time.Second,
		MinWitnesses: 2,
		CredibleWitness: func(gcrypto.Address) bool {
			return true
		},
	}
}

func conflictingPrepares(t *testing.T, kp *gcrypto.KeyPair) (*consensus.Envelope, *consensus.Envelope) {
	t.Helper()
	a := &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 3, View: 1, Seq: 7, Digest: gcrypto.HashBytes([]byte("block-a"))}}
	b := &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 3, View: 1, Seq: 7, Digest: gcrypto.HashBytes([]byte("block-b"))}}
	return consensus.Seal(kp, a), consensus.Seal(kp, b)
}

func reportTx(kp *gcrypto.KeyPair, nonce uint64, at geo.Point, ts time.Time) *types.Transaction {
	tx := &types.Transaction{
		Type:  types.TxLocationReport,
		Nonce: nonce,
		Geo:   types.GeoInfo{Location: at, Timestamp: ts},
	}
	tx.Sign(kp)
	return tx
}

func witnessTx(kp *gcrypto.KeyPair, nonce uint64, subject gcrypto.Address, cell string, seen bool, ts time.Time) *types.Transaction {
	tx := &types.Transaction{
		Type:  types.TxWitness,
		Nonce: nonce,
		Payload: types.EncodeWitnessStatement(&types.WitnessStatement{
			Subject: subject,
			Geohash: cell,
			Seen:    seen,
		}),
		Geo: types.GeoInfo{Location: geo.Point{Lng: 114.178, Lat: 22.305}, Timestamp: ts},
	}
	tx.Sign(kp)
	return tx
}

func TestDoubleSignRoundTripAndVerify(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	envA, envB := conflictingPrepares(t, kp)
	rec, err := evidence.NewDoubleSign(envA, envB)
	if err != nil {
		t.Fatalf("NewDoubleSign: %v", err)
	}
	if len(rec.Offenders) != 1 || rec.Offenders[0] != kp.Address() {
		t.Fatalf("offenders = %v, want [%s]", rec.Offenders, kp.Address().Short())
	}

	// Wire round-trip preserves the record and its ID.
	got, err := evidence.Decode(evidence.Encode(rec))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.ID() != rec.ID() {
		t.Fatal("round-trip changed the record ID")
	}
	if err := got.Verify(ctxAllowAll()); err != nil {
		t.Fatalf("Verify after round-trip: %v", err)
	}
	// DoubleSign needs no policy support: it must verify even with
	// everything else disabled.
	if err := got.Verify(evidence.VerifyContext{}); err != nil {
		t.Fatalf("Verify with zero context: %v", err)
	}

	// Argument order must not matter: same pair, same ID.
	rec2, err := evidence.NewDoubleSign(envB, envA)
	if err != nil {
		t.Fatalf("NewDoubleSign swapped: %v", err)
	}
	if rec2.ID() != rec.ID() {
		t.Fatal("detector order changed the record ID — dedup breaks")
	}
}

func TestDoubleSignRejectsNonOffenses(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	other := gcrypto.DeterministicKeyPair(2)

	// Two identical votes are not an offense.
	v := &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, View: 0, Seq: 2, Digest: gcrypto.HashBytes([]byte("x"))}}
	env := consensus.Seal(kp, v)
	if _, err := evidence.NewDoubleSign(env, env); err == nil {
		t.Fatal("accepted a single vote presented twice")
	}

	// Votes for different slots are not an offense.
	w := &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, View: 0, Seq: 3, Digest: gcrypto.HashBytes([]byte("y"))}}
	if _, err := evidence.NewDoubleSign(env, consensus.Seal(kp, w)); err == nil {
		t.Fatal("accepted votes for different sequence numbers")
	}

	// Forged accusation: offender field naming someone who did not sign.
	envA, envB := conflictingPrepares(t, kp)
	rec, err := evidence.NewDoubleSign(envA, envB)
	if err != nil {
		t.Fatal(err)
	}
	rec.Offenders[0] = other.Address()
	if err := rec.Verify(ctxAllowAll()); err == nil {
		t.Fatal("verified a record framing a replica that signed nothing")
	}

	// Tampered proof bytes must fail envelope verification.
	rec, _ = evidence.NewDoubleSign(envA, envB)
	rec.Proofs[1] = append([]byte(nil), rec.Proofs[1]...)
	rec.Proofs[1][len(rec.Proofs[1])-1] ^= 1
	if err := rec.Verify(ctxAllowAll()); err == nil {
		t.Fatal("verified a record with tampered proof bytes")
	}
}

func TestSybilSameCellVerify(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(10)
	kpB := gcrypto.DeterministicKeyPair(11)
	spot := geo.Point{Lng: 114.1712, Lat: 22.3015}
	txA := reportTx(kpA, 1, spot, epoch)
	txB := reportTx(kpB, 1, spot, epoch.Add(500*time.Millisecond))

	rec, err := evidence.NewSybilSameCell(txA, txB, 2*time.Second)
	if err != nil {
		t.Fatalf("NewSybilSameCell: %v", err)
	}
	if err := rec.Verify(ctxAllowAll()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Order independence ⇒ identical ID.
	rec2, err := evidence.NewSybilSameCell(txB, txA, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ID() != rec.ID() {
		t.Fatal("tx order changed the Sybil record ID")
	}

	// Policy with the window off must refuse the record.
	if err := rec.Verify(evidence.VerifyContext{}); !errors.Is(err, evidence.ErrDisabled) {
		t.Fatalf("window=0 verify = %v, want ErrDisabled", err)
	}

	// Reports outside the window are not simultaneous occupancy.
	txLate := reportTx(kpB, 2, spot, epoch.Add(time.Minute))
	if _, err := evidence.NewSybilSameCell(txA, txLate, 2*time.Second); err == nil {
		t.Fatal("accepted reports a minute apart as simultaneous")
	}

	// Different cells are not an offense.
	txFar := reportTx(kpB, 3, geo.Point{Lng: 114.179, Lat: 22.309}, epoch)
	if _, err := evidence.NewSybilSameCell(txA, txFar, 2*time.Second); err == nil {
		t.Fatal("accepted reports for different cells")
	}

	// One identity reporting twice is not a Sybil pair.
	if _, err := evidence.NewSybilSameCell(txA, reportTx(kpA, 2, spot, epoch), 2*time.Second); err == nil {
		t.Fatal("accepted a single identity as a pair")
	}
}

func TestLocationSpoofVerify(t *testing.T) {
	subject := gcrypto.DeterministicKeyPair(20)
	w1 := gcrypto.DeterministicKeyPair(21)
	w2 := gcrypto.DeterministicKeyPair(22)
	spot := geo.Point{Lng: 114.1712, Lat: 22.3015}
	claim := reportTx(subject, 1, spot, epoch)
	cell := geo.MustEncode(spot, geo.CSCPrecision)
	d1 := witnessTx(w1, 1, subject.Address(), cell, false, epoch.Add(time.Second))
	d2 := witnessTx(w2, 1, subject.Address(), cell, false, epoch.Add(time.Second))

	ctx := ctxAllowAll()
	rec, err := evidence.NewLocationSpoof(claim, []*types.Transaction{d1, d2}, ctx)
	if err != nil {
		t.Fatalf("NewLocationSpoof: %v", err)
	}
	if err := rec.Verify(ctx); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got, err := evidence.Decode(evidence.Encode(rec)); err != nil || got.ID() != rec.ID() {
		t.Fatalf("round-trip: err=%v", err)
	}

	// Witness order must not change the ID.
	rec2, err := evidence.NewLocationSpoof(claim, []*types.Transaction{d2, d1}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ID() != rec.ID() {
		t.Fatal("witness order changed the spoof record ID")
	}

	// Non-credible witnesses must not be able to convict.
	strict := ctx
	strict.CredibleWitness = func(a gcrypto.Address) bool { return a == w1.Address() }
	if err := rec.Verify(strict); err == nil {
		t.Fatal("verified with a non-credible witness in the quorum")
	}

	// A confirming statement is not a dispute.
	conf := witnessTx(w2, 2, subject.Address(), cell, true, epoch.Add(time.Second))
	if _, err := evidence.NewLocationSpoof(claim, []*types.Transaction{d1, conf}, ctx); err == nil {
		t.Fatal("accepted a confirming statement as a dispute")
	}

	// Below-quorum disputes must not convict.
	if _, err := evidence.NewLocationSpoof(claim, []*types.Transaction{d1}, ctx); err == nil {
		t.Fatal("accepted a single dispute below the quorum")
	}

	// The accused disputing itself does not count.
	self := witnessTx(subject, 2, subject.Address(), cell, false, epoch.Add(time.Second))
	if _, err := evidence.NewLocationSpoof(claim, []*types.Transaction{d1, self}, ctx); err == nil {
		t.Fatal("accepted the accused as its own witness")
	}

	// MinWitnesses=0 policy refuses the kind entirely.
	if err := rec.Verify(evidence.VerifyContext{SybilWindow: time.Second}); !errors.Is(err, evidence.ErrDisabled) {
		t.Fatalf("MinWitnesses=0 verify = %v, want ErrDisabled", err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":   {},
		"junk":    []byte("not an evidence record"),
		"tag-only": func() []byte {
			kp := gcrypto.DeterministicKeyPair(1)
			a, b := conflictingPrepares(t, kp)
			rec, _ := evidence.NewDoubleSign(a, b)
			return evidence.Encode(rec)[:8]
		}(),
	}
	for name, b := range cases {
		if _, err := evidence.Decode(b); err == nil {
			t.Errorf("%s: Decode accepted malformed bytes", name)
		}
	}

	// Trailing garbage after a valid record must be rejected.
	kp := gcrypto.DeterministicKeyPair(1)
	a, b := conflictingPrepares(t, kp)
	rec, _ := evidence.NewDoubleSign(a, b)
	if _, err := evidence.Decode(append(evidence.Encode(rec), 0x00)); err == nil {
		t.Error("Decode accepted trailing garbage")
	}

	// Unknown kinds decode (forward-compat shape) but never verify.
	rec.Kind = evidence.Type(99)
	got, err := evidence.Decode(evidence.Encode(rec))
	if err != nil {
		t.Fatalf("unknown kind decode: %v", err)
	}
	if err := got.Verify(ctxAllowAll()); !errors.Is(err, evidence.ErrKind) {
		t.Fatalf("unknown kind verify = %v, want ErrKind", err)
	}
}

func TestDescribeNamesOffense(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	a, b := conflictingPrepares(t, kp)
	rec, _ := evidence.NewDoubleSign(a, b)
	s := rec.Describe()
	if s == "" {
		t.Fatal("empty description")
	}
	for _, want := range []string{"double-sign", "seq=7"} {
		if !contains(s, want) {
			t.Errorf("Describe() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
