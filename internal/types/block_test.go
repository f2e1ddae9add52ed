package types

import (
	"bytes"
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

func testBlock(t *testing.T, n int) *Block {
	t.Helper()
	kp := gcrypto.DeterministicKeyPair(1)
	txs := make([]Transaction, n)
	for i := range txs {
		txs[i] = Transaction{
			Type:    TxNormal,
			Nonce:   uint64(i),
			Payload: []byte{byte(i)},
			Fee:     uint64(i + 1),
			Geo: GeoInfo{
				Location:  geo.Point{Lng: 114, Lat: 22},
				Timestamp: time.Unix(1565025600, 0),
			},
		}
		txs[i].Sign(kp)
	}
	return NewBlock(BlockHeader{
		Height:    3,
		Era:       1,
		View:      0,
		Seq:       3,
		PrevHash:  gcrypto.HashBytes([]byte("prev")),
		Proposer:  kp.Address(),
		Timestamp: time.Unix(1565025601, 0),
	}, txs)
}

func TestNewBlockFillsTxRoot(t *testing.T) {
	b := testBlock(t, 3)
	if b.Header.TxRoot.IsZero() {
		t.Fatal("tx root not filled")
	}
	if err := b.VerifyTxRoot(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBlockTxRoot(t *testing.T) {
	b := testBlock(t, 0)
	if !b.Header.TxRoot.IsZero() {
		t.Fatal("empty block should have zero tx root")
	}
	if err := b.VerifyTxRoot(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyTxRootDetectsMutation(t *testing.T) {
	b := testBlock(t, 3)
	b.Txs[1].Fee = 9999
	if err := b.VerifyTxRoot(); err != ErrBlockTxRoot {
		t.Fatalf("want ErrBlockTxRoot, got %v", err)
	}
}

func TestBlockHashDependsOnHeader(t *testing.T) {
	a := testBlock(t, 2)
	b := testBlock(t, 2)
	if a.Hash() != b.Hash() {
		t.Fatal("identical blocks must hash equal")
	}
	b.Header.Height = 4
	if a.Hash() == b.Hash() {
		t.Fatal("height change must change hash")
	}
}

func TestBlockTotalFees(t *testing.T) {
	b := testBlock(t, 4) // fees 1+2+3+4
	if b.TotalFees() != 10 {
		t.Fatalf("TotalFees=%d, want 10", b.TotalFees())
	}
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	b := testBlock(t, 5)
	wire := EncodeBlock(b)
	got, err := DecodeBlock(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != b.Hash() {
		t.Fatal("decoded block hash differs")
	}
	if len(got.Txs) != 5 {
		t.Fatalf("decoded %d txs", len(got.Txs))
	}
	if err := got.VerifyTxRoot(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeBlock(got), wire) {
		t.Fatal("re-encoding differs")
	}
}

// certVote signs what an endorser's commit envelope signs for hash at
// (era, view, seq).
func certVote(kp *gcrypto.KeyPair, era, view, seq uint64, hash gcrypto.Hash) Vote {
	return Vote{Endorser: kp.Address(), Signature: kp.Sign(CommitVoteBytes(kp.Address(), era, view, seq, hash))}
}

func TestBlockWithCertRoundTrip(t *testing.T) {
	b := testBlock(t, 1)
	hash := b.Hash()
	keys := map[gcrypto.Address]gcrypto.PublicKey{}
	var votes []Vote
	for i := 0; i < 4; i++ {
		kp := gcrypto.DeterministicKeyPair(10 + i)
		keys[kp.Address()] = kp.Public()
		votes = append(votes, certVote(kp, 1, 0, b.Header.Seq, hash))
	}
	b.Cert = &Certificate{BlockHash: hash, Era: 1, View: 0, Votes: votes}

	got, err := DecodeBlock(EncodeBlock(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cert == nil {
		t.Fatal("certificate lost in round trip")
	}
	if err := got.Cert.Verify(hash, got.Header.Seq, keys, 3); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateVerifyQuorum(t *testing.T) {
	b := testBlock(t, 1)
	hash := b.Hash()
	keys := map[gcrypto.Address]gcrypto.PublicKey{}
	var votes []Vote
	for i := 0; i < 2; i++ {
		kp := gcrypto.DeterministicKeyPair(20 + i)
		keys[kp.Address()] = kp.Public()
		votes = append(votes, certVote(kp, 1, 0, 3, hash))
	}
	cert := &Certificate{BlockHash: hash, Era: 1, View: 0, Votes: votes}
	if err := cert.Verify(hash, 3, keys, 3); err == nil {
		t.Fatal("2 votes must not satisfy quorum 3")
	}
	if err := cert.Verify(hash, 3, keys, 2); err != nil {
		t.Fatalf("2 votes should satisfy quorum 2: %v", err)
	}
}

// TestCertificateVerifyRejects: no vote here was noted (NoteVote), so
// every one is verified cold, as by a node that took no part in the
// round, and a cached accept of the good vote carries over to no other
// (era, view, seq, hash).
func TestCertificateVerifyRejects(t *testing.T) {
	b := testBlock(t, 1)
	hash := b.Hash()
	kp := gcrypto.DeterministicKeyPair(30)
	keys := map[gcrypto.Address]gcrypto.PublicKey{kp.Address(): kp.Public()}
	good := certVote(kp, 1, 2, 3, hash)
	if err := (&Certificate{BlockHash: hash, Era: 1, View: 2, Votes: []Vote{good}}).Verify(hash, 3, keys, 1); err != nil {
		t.Fatalf("good vote refused: %v", err)
	}

	// Wrong block hash.
	cert := &Certificate{BlockHash: gcrypto.HashBytes([]byte("other")), Era: 1, View: 2, Votes: []Vote{good}}
	if err := cert.Verify(hash, 3, keys, 1); err != ErrCertBlockHash {
		t.Errorf("wrong hash: %v", err)
	}

	// Duplicate voter.
	cert = &Certificate{BlockHash: hash, Era: 1, View: 2, Votes: []Vote{good, good}}
	if err := cert.Verify(hash, 3, keys, 1); err != ErrCertDupVote {
		t.Errorf("dup voter: %v", err)
	}

	// Non-member vote doesn't count.
	outsider := gcrypto.DeterministicKeyPair(31)
	cert = &Certificate{BlockHash: hash, Era: 1, View: 2, Votes: []Vote{certVote(outsider, 1, 2, 3, hash)}}
	if err := cert.Verify(hash, 3, keys, 1); err == nil {
		t.Error("outsider vote must not satisfy quorum")
	}

	// A vote for another era, view or sequence number doesn't count,
	// whichever side of the comparison is off.
	for name, c := range map[string]struct {
		cert Certificate
		seq  uint64
	}{
		"signed era":  {Certificate{BlockHash: hash, Era: 1, View: 2, Votes: []Vote{certVote(kp, 9, 2, 3, hash)}}, 3},
		"signed view": {Certificate{BlockHash: hash, Era: 1, View: 2, Votes: []Vote{certVote(kp, 1, 0, 3, hash)}}, 3},
		"signed seq":  {Certificate{BlockHash: hash, Era: 1, View: 2, Votes: []Vote{certVote(kp, 1, 2, 4, hash)}}, 3},
		"cert era":    {Certificate{BlockHash: hash, Era: 9, View: 2, Votes: []Vote{good}}, 3},
		"cert view":   {Certificate{BlockHash: hash, Era: 1, View: 0, Votes: []Vote{good}}, 3},
		"header seq":  {Certificate{BlockHash: hash, Era: 1, View: 2, Votes: []Vote{good}}, 4},
	} {
		if err := c.cert.Verify(hash, c.seq, keys, 1); err == nil {
			t.Errorf("wrong %s satisfied quorum", name)
		}
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	if _, err := DecodeBlock([]byte{1}); err == nil {
		t.Error("garbage must fail")
	}
	wire := EncodeBlock(testBlock(t, 1))
	if _, err := DecodeBlock(append(wire, 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
	// Corrupt the tag.
	bad := append([]byte(nil), wire...)
	bad[5] ^= 0xFF
	if _, err := DecodeBlock(bad); err == nil {
		t.Error("bad tag must fail")
	}
}

// TestMinimumEncodings pins the shortest encodings that decoders bound
// their element counts by.
func TestMinimumEncodings(t *testing.T) {
	if n := len(EncodeTx(&Transaction{})); n != MinTxSize {
		t.Fatalf("shortest transaction encodes to %d bytes, MinTxSize is %d", n, MinTxSize)
	}
	if n := len(EncodeBlock(&Block{})); n != MinBlockSize {
		t.Fatalf("shortest block encodes to %d bytes, MinBlockSize is %d", n, MinBlockSize)
	}
	// An endorser encodes as chain state writes it: address, key, cell.
	var e EndorserInfo
	w := codec.NewWriter(0)
	w.Raw(e.Address[:])
	w.WriteBytes(e.PubKey)
	w.String(e.Geohash)
	if n := len(w.Bytes()); n != MinEndorserInfoSize {
		t.Fatalf("shortest endorser encodes to %d bytes, MinEndorserInfoSize is %d", n, MinEndorserInfoSize)
	}
}
