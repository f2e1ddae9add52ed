package types

import (
	"bytes"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

// checkDigests fails unless tx carries the ID and leaf digests its
// fields give when hashed afresh.
func checkDigests(t *testing.T, tx *Transaction) {
	t.Helper()
	if tx.id != gcrypto.HashBytes(tx.signingBytes()) {
		t.Fatal("carried ID differs from the hash of the signed content")
	}
	if tx.leaf != gcrypto.LeafHash(EncodeTx(tx)) {
		t.Fatal("carried leaf differs from the leaf hash of the encoding")
	}
}

// FuzzDecodeTx: arbitrary bytes must never panic the transaction
// decoder, and any successfully decoded transaction must re-encode to
// the identical bytes (canonical form) and carry the digests its fields
// give.
func FuzzDecodeTx(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	tx := &Transaction{
		Type: TxNormal, Nonce: 7, Payload: []byte("seed"), Fee: 3,
		Geo: GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3}, Timestamp: time.Unix(1565000000, 0)},
	}
	tx.Sign(kp)
	f.Add(EncodeTx(tx))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTx(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeTx(got), data) {
			t.Fatal("decoded tx does not re-encode canonically")
		}
		checkDigests(t, got)
	})
}

// FuzzDecodeBlock: the block decoder must be total, and every
// transaction of a decoded block carries the digests its fields give.
func FuzzDecodeBlock(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	tx := Transaction{
		Type: TxNormal, Nonce: 1, Payload: []byte("x"), Fee: 1,
		Geo: GeoInfo{Location: geo.Point{Lng: 1, Lat: 2}, Timestamp: time.Unix(10, 0)},
	}
	tx.Sign(kp)
	b := NewBlock(BlockHeader{Height: 1, Timestamp: time.Unix(11, 0)}, []Transaction{tx})
	f.Add(EncodeBlock(b))
	f.Add([]byte("gpbft/block/v1 but not really"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeBlock(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeBlock(got), data) {
			t.Fatal("decoded block does not re-encode canonically")
		}
		for i := range got.Txs {
			checkDigests(t, &got.Txs[i])
		}
	})
}

// FuzzDecodeWitnessStatement covers the witness payload sub-codec.
func FuzzDecodeWitnessStatement(f *testing.F) {
	f.Add(EncodeWitnessStatement(&WitnessStatement{
		Subject: gcrypto.DeterministicKeyPair(4).Address(),
		Geohash: "wecnyhwbp1",
		Seen:    true,
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeWitnessStatement(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeWitnessStatement(got), data) {
			t.Fatal("witness statement not canonical")
		}
	})
}
