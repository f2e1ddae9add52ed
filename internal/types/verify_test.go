package types

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

func signedTx(t testing.TB, i int) Transaction {
	t.Helper()
	kp := gcrypto.DeterministicKeyPair(1000 + i)
	tx := Transaction{
		Type:    TxNormal,
		Nonce:   uint64(i),
		Payload: []byte(fmt.Sprintf("payload %d", i)),
		Fee:     1,
		Geo: GeoInfo{
			Location:  geo.Point{Lng: 10, Lat: 20},
			Timestamp: time.Unix(1700000000+int64(i), 0),
		},
	}
	tx.Sign(kp)
	return tx
}

// assertTxEquivalent checks VerifyTxs and VerifyCached against the
// serial Verify oracle on every index.
func assertTxEquivalent(t *testing.T, txs []Transaction) {
	t.Helper()
	got := VerifyTxs(txs)
	if len(got) != len(txs) {
		t.Fatalf("VerifyTxs returned %d results for %d txs", len(got), len(txs))
	}
	for i := range txs {
		want := txs[i].Verify()
		if (got[i] == nil) != (want == nil) {
			t.Fatalf("index %d: batch=%v serial=%v", i, got[i], want)
		}
		if want != nil && got[i].Error() != want.Error() {
			t.Fatalf("index %d: batch error %q, serial error %q", i, got[i], want)
		}
		cached := txs[i].VerifyCached()
		if (cached == nil) != (want == nil) {
			t.Fatalf("index %d: cached=%v serial=%v", i, cached, want)
		}
	}
}

func TestVerifyTxsAllValid(t *testing.T) {
	txs := make([]Transaction, 16)
	for i := range txs {
		txs[i] = signedTx(t, i)
	}
	assertTxEquivalent(t, txs)
	// Second pass: now fully cached; results must not change.
	assertTxEquivalent(t, txs)
}

func TestVerifyTxsEmpty(t *testing.T) {
	if got := VerifyTxs(nil); len(got) != 0 {
		t.Fatalf("VerifyTxs(nil) = %v", got)
	}
}

// TestVerifyTxsBadEveryPosition plants one failure at each index in
// turn — alternating structural and signature failures.
func TestVerifyTxsBadEveryPosition(t *testing.T) {
	const n = 8
	for bad := 0; bad < n; bad++ {
		txs := make([]Transaction, n)
		for i := range txs {
			txs[i] = signedTx(t, 100*bad+i)
		}
		if bad%2 == 0 {
			txs[bad].Signature = append([]byte(nil), txs[bad].Signature...)
			txs[bad].Signature[0] ^= 0xFF // signature failure
		} else {
			txs[bad].Geo.Timestamp = time.Time{} // structural failure
		}
		assertTxEquivalent(t, txs)
	}
}

// TestVerifyCachedRejectsMutation confirms a cached accept cannot leak
// to a tampered transaction: the cache key covers the signature, and a
// content change moves the ID.
func TestVerifyCachedRejectsMutation(t *testing.T) {
	tx := signedTx(t, 1)
	if err := tx.VerifyCached(); err != nil {
		t.Fatalf("valid tx rejected: %v", err)
	}
	tampered := tx
	tampered.Nonce++ // new ID: cache miss, signature no longer matches
	if err := tampered.VerifyCached(); err == nil {
		t.Fatal("tampered content accepted from cache")
	}
	resigned := tx
	resigned.Signature = append([]byte(nil), tx.Signature...)
	resigned.Signature[10] ^= 0x01 // same ID, different signature bytes
	if err := resigned.VerifyCached(); err == nil {
		t.Fatal("tampered signature accepted from cache")
	}
}

// TestSigCacheDisabledCrypto: verdicts must not be cached (or served)
// while gcrypto verification is globally disabled, or a later
// re-enable would accept unverified signatures.
func TestSigCacheDisabledCrypto(t *testing.T) {
	tx := signedTx(t, 2)
	tx.Signature = append([]byte(nil), tx.Signature...)
	tx.Signature[0] ^= 0xFF // invalid signature

	prev := gcrypto.SetVerification(false)
	if err := tx.VerifyCached(); err != nil {
		t.Fatalf("with crypto off, bad signature should pass: %v", err)
	}
	gcrypto.SetVerification(true)
	if err := tx.VerifyCached(); err == nil {
		t.Fatal("bad signature accepted after re-enabling crypto")
	}
	gcrypto.SetVerification(prev)
}

// TestSigCacheToggle: SetSigCache(false) must route through the plain
// serial path.
func TestSigCacheToggle(t *testing.T) {
	prev := SetSigCache(false)
	defer SetSigCache(prev)
	txs := []Transaction{signedTx(t, 3), signedTx(t, 4)}
	txs[1].Signature = nil
	assertTxEquivalent(t, txs)
}

// TestVerifyTxsConcurrent hammers the striped cache from many
// goroutines under -race.
func TestVerifyTxsConcurrent(t *testing.T) {
	txs := make([]Transaction, 32)
	for i := range txs {
		txs[i] = signedTx(t, 200+i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for _, err := range VerifyTxs(txs) {
					if err != nil {
						t.Errorf("unexpected verify error: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := SigCacheStats()
	if hits == 0 {
		t.Errorf("expected cache hits, got hits=%d misses=%d", hits, misses)
	}
}

// TestSigCacheRotation fills stripes past their cap and confirms both
// correctness and that the cache stays bounded.
func TestSigCacheRotation(t *testing.T) {
	for i := 0; i < 3000; i++ {
		tx := signedTx(t, 5000+i)
		if err := tx.VerifyCached(); err != nil {
			t.Fatalf("tx %d rejected: %v", i, err)
		}
	}
	for i := range sigCache {
		s := &sigCache[i]
		s.mu.Lock()
		if len(s.cur) > sigCacheStripeCap || len(s.prev) > sigCacheStripeCap {
			t.Errorf("stripe %d over cap: cur=%d prev=%d", i, len(s.cur), len(s.prev))
		}
		s.mu.Unlock()
	}
}

// TestNoteVote: a noted vote is served from the cache under exactly its
// (endorser, signed bytes, signature), and a note taken while crypto is
// disabled is not there once it is back on.
func TestNoteVote(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(4242)
	keys := map[gcrypto.Address]gcrypto.PublicKey{kp.Address(): kp.Public()}
	hash := gcrypto.Hash{0x14}
	signed := CommitVoteBytes(kp.Address(), 3, 1, 7, hash)
	sig := kp.Sign(signed)
	cert := &Certificate{BlockHash: hash, Era: 3, View: 1, Votes: []Vote{{Endorser: kp.Address(), Signature: sig}}}

	_, before := SigCacheStats()
	NoteVote(kp.Address(), signed, sig)
	if err := cert.Verify(hash, 7, keys, 1); err != nil {
		t.Fatal(err)
	}
	if _, after := SigCacheStats(); after != before {
		t.Fatalf("noted vote cost %d cache misses", after-before)
	}
	forged := append([]byte(nil), sig...)
	forged[0] ^= 0xFF
	cert.Votes[0].Signature = forged
	if cert.Verify(hash, 7, keys, 1) == nil {
		t.Fatal("a different signature rode in on the noted vote")
	}

	prev := gcrypto.SetVerification(false)
	NoteVote(kp.Address(), CommitVoteBytes(kp.Address(), 3, 1, 8, hash), forged)
	gcrypto.SetVerification(prev)
	if cert.Verify(hash, 8, keys, 1) == nil {
		t.Fatal("vote noted with crypto off accepted after re-enabling it")
	}
}
