package types

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

func testTx(t *testing.T, kp *gcrypto.KeyPair, typ TxType) *Transaction {
	t.Helper()
	tx := &Transaction{
		Type:    typ,
		Nonce:   7,
		Payload: []byte("temp=23.4C"),
		Fee:     10,
		Geo: GeoInfo{
			Location:  geo.Point{Lng: 114.1795, Lat: 22.3050},
			Timestamp: time.Date(2019, 8, 5, 18, 0, 0, 0, time.UTC),
		},
	}
	if typ == TxLocationReport {
		tx.Payload = nil
	}
	tx.Sign(kp)
	return tx
}

func TestTxSignVerify(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	for _, typ := range []TxType{TxNormal, TxLocationReport} {
		tx := testTx(t, kp, typ)
		if err := tx.Verify(); err != nil {
			t.Fatalf("%v tx: %v", typ, err)
		}
	}
}

func TestTxVerifyRejectsTampering(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)

	tx := testTx(t, kp, TxNormal)
	tx.Payload = []byte("temp=99.9C")
	if err := tx.Verify(); err == nil {
		t.Error("payload tampering must fail verification")
	}

	tx = testTx(t, kp, TxNormal)
	tx.Fee = 999999
	if err := tx.Verify(); err == nil {
		t.Error("fee tampering must fail verification")
	}

	tx = testTx(t, kp, TxNormal)
	tx.Geo.Location.Lng += 0.0001
	if err := tx.Verify(); err == nil {
		t.Error("location tampering must fail verification")
	}
}

func TestTxVerifyStructural(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)

	tx := testTx(t, kp, TxNormal)
	tx.Type = TxType(99)
	if err := tx.Verify(); err != ErrTxType {
		t.Errorf("unknown type: %v", err)
	}

	tx = testTx(t, kp, TxNormal)
	tx.Sender = gcrypto.Address{}
	if err := tx.Verify(); err != ErrTxNoSender {
		t.Errorf("zero sender: %v", err)
	}

	tx = testTx(t, kp, TxNormal)
	tx.Geo.Location.Lat = 91
	if err := tx.Verify(); err == nil {
		t.Error("bad latitude must fail")
	}

	tx = testTx(t, kp, TxNormal)
	tx.Geo.Timestamp = time.Time{}
	if err := tx.Verify(); err != ErrTxNoTimestamp {
		t.Errorf("zero timestamp: %v", err)
	}

	tx = testTx(t, kp, TxNormal)
	tx.SenderPub = tx.SenderPub[:10]
	if err := tx.Verify(); err == nil {
		t.Error("truncated pubkey must fail")
	}

	// Location report with payload is malformed.
	bad := testTx(t, kp, TxNormal)
	bad.Type = TxLocationReport
	bad.Sign(kp)
	if err := bad.Verify(); err == nil {
		t.Error("location report with payload must fail")
	}
}

func TestTxIDStableAndUnique(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	a := testTx(t, kp, TxNormal)
	b := testTx(t, kp, TxNormal)
	if a.ID() != b.ID() {
		t.Error("identical content must have identical IDs")
	}
	c := testTx(t, kp, TxNormal)
	c.Nonce = 8
	c.Sign(kp)
	if a.ID() == c.ID() {
		t.Error("different nonce must change the ID")
	}
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(2)
	orig := testTx(t, kp, TxNormal)
	wire := EncodeTx(orig)
	got, err := DecodeTx(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != orig.ID() {
		t.Fatal("decoded tx has different ID")
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("decoded tx fails verification: %v", err)
	}
	if !bytes.Equal(EncodeTx(got), wire) {
		t.Fatal("re-encoding differs")
	}
}

func TestDecodeTxErrors(t *testing.T) {
	if _, err := DecodeTx([]byte{1, 2}); err == nil {
		t.Error("short buffer must fail")
	}
	kp := gcrypto.DeterministicKeyPair(2)
	wire := EncodeTx(testTx(t, kp, TxNormal))
	if _, err := DecodeTx(append(wire, 0xFF)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestTxReport(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(3)
	tx := testTx(t, kp, TxLocationReport)
	rep := tx.Report()
	if rep.Address != kp.Address().String() {
		t.Errorf("report address %q", rep.Address)
	}
	if !rep.Location.Equal(tx.Geo.Location) {
		t.Error("report location mismatch")
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTxTypeString(t *testing.T) {
	if TxNormal.String() != "normal" || TxLocationReport.String() != "location-report" {
		t.Error("type names wrong")
	}
	if TxType(42).String() == "" {
		t.Error("unknown type should still render")
	}
}

// TestRetiredConfigKindRefused: the configuration transaction's kind
// number is retired, not reused. A transaction of that kind — from any
// sender, validly signed — fails Verify with a named error, so no block
// holding one (a block log written before the retirement included) is
// ever applied.
func TestRetiredConfigKindRefused(t *testing.T) {
	tx := testTx(t, gcrypto.DeterministicKeyPair(1), txRetiredConfig)
	if err := tx.Verify(); !errors.Is(err, ErrTxRetired) {
		t.Fatalf("verify of the retired kind: %v, want ErrTxRetired", err)
	}
	if txRetiredConfig.Valid() || txRetiredConfig.Control() {
		t.Fatal("the retired kind is still a valid or control type")
	}
	if !TxLocationReport.Valid() || !TxRegionCheckpoint.Valid() {
		t.Fatal("the kinds after the retired number lost their validity")
	}
}

// Property: random transactions round-trip through the wire format.
func TestTxWireProperty(t *testing.T) {
	// Normal is the one kind whose arbitrary payload Verify accepts.
	f := func(seed int64, nonce uint64, fee uint64, payload []byte) bool {
		kp := gcrypto.DeterministicKeyPair(int(seed % 64))
		rng := rand.New(rand.NewSource(seed))
		tx := &Transaction{
			Type:    TxNormal,
			Nonce:   nonce,
			Payload: payload,
			Fee:     fee,
			Geo: GeoInfo{
				Location:  geo.Point{Lng: rng.Float64()*360 - 180, Lat: rng.Float64()*180 - 90},
				Timestamp: time.Unix(rng.Int63n(1<<35), 0),
			},
		}
		tx.Sign(kp)
		got, err := DecodeTx(EncodeTx(tx))
		if err != nil {
			return false
		}
		return got.ID() == tx.ID() && got.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGeoInfoMarshalDeterministic(t *testing.T) {
	g := GeoInfo{Location: geo.Point{Lng: 1, Lat: 2}, Timestamp: time.Unix(100, 5)}
	w1 := codec.NewWriter(0)
	w2 := codec.NewWriter(0)
	g.MarshalCanonical(w1)
	g.MarshalCanonical(w2)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("GeoInfo encoding not deterministic")
	}
}

// Digests are carried only where a transaction's bytes are fixed: a
// literal or a Sign'd transaction carries none and hashes afresh, even
// when Sign is called on a copy of a decoded one; Sealed sets them on a
// copy and leaves its argument as it was.
func TestTxDigestsCarriedOnlyWhenFixed(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	lit := Transaction{Type: TxNormal, Nonce: 1, Payload: []byte("x")}
	if !lit.id.IsZero() || !lit.leaf.IsZero() {
		t.Fatal("a literal carries digests")
	}
	tx := testTx(t, kp, TxNormal)
	if !tx.id.IsZero() || !tx.leaf.IsZero() {
		t.Fatal("a Sign'd transaction carries digests")
	}

	dec, err := DecodeTx(EncodeTx(tx))
	if err != nil {
		t.Fatal(err)
	}
	if dec.id != tx.ID() || dec.leaf != tx.leafHash() {
		t.Fatal("decoded digests differ from the hashes of the original")
	}
	resigned := *dec
	resigned.Fee++
	resigned.Sign(kp)
	if !resigned.id.IsZero() || !resigned.leaf.IsZero() || resigned.ID() == dec.ID() {
		t.Fatal("Sign kept the digests of the content it replaced")
	}

	sealed := tx.Sealed()
	if sealed == tx || !tx.id.IsZero() {
		t.Fatal("Sealed must seal a copy, not its argument")
	}
	if sealed.id != tx.ID() || sealed.leaf != tx.leafHash() {
		t.Fatal("sealed digests differ from the hashes of the fields")
	}
	if sealed.Sealed() != sealed || dec.Sealed() != dec {
		t.Fatal("a transaction that carries digests is sealed already")
	}
}
