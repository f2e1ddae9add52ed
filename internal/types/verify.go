package types

import (
	"sync"
	"sync/atomic"

	"gpbft/internal/gcrypto"
)

// Hot-path transaction verification. A transaction's signature is
// checked several times on its way into the ledger — once at local
// submission, once per committee relay received, and once per replica
// inside block validation. The checks are pure functions of the
// transaction bytes, so the results are memoized in a bounded,
// lock-striped cache keyed by (tx ID, signature); block validation
// additionally fans the uncached checks out over the gcrypto worker
// pool. Both layers preserve byte-exact accept/reject semantics with
// the serial path: only successful verifications under real
// (non-disabled) crypto are ever cached.

// sigCacheStripes must be a power of two (the stripe index is masked).
const sigCacheStripes = 64

// sigCacheStripeCap bounds each stripe's two generations; the full
// cache holds at most 2*64*1024 = 128k verified signatures (~4 MB).
const sigCacheStripeCap = 1024

type sigStripe struct {
	mu   sync.Mutex
	cur  map[gcrypto.Hash]struct{}
	prev map[gcrypto.Hash]struct{}
}

var (
	sigCache        [sigCacheStripes]sigStripe
	sigCacheEnabled atomic.Bool
	sigCacheHits    atomic.Uint64
	sigCacheMisses  atomic.Uint64
)

func init() { sigCacheEnabled.Store(true) }

// SetSigCache toggles the verified-signature cache; returns the
// previous setting. The serial ablation baseline in gpbft-bench turns
// it off to reproduce seed behaviour.
func SetSigCache(on bool) bool { return sigCacheEnabled.Swap(on) }

// SigCacheStats reports cache hits and misses since process start.
func SigCacheStats() (hits, misses uint64) {
	return sigCacheHits.Load(), sigCacheMisses.Load()
}

// sigCacheKey binds the cached verdict to the exact signature bytes:
// the tx ID covers only the signed content, so two encodings of the
// same ID with different signatures must not share a cache slot.
func sigCacheKey(tx *Transaction) gcrypto.Hash {
	id := tx.ID()
	return gcrypto.HashConcat(id[:], tx.Signature)
}

func sigCacheLookup(key gcrypto.Hash) bool {
	s := &sigCache[key[0]&(sigCacheStripes-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cur[key]; ok {
		sigCacheHits.Add(1)
		return true
	}
	if _, ok := s.prev[key]; ok {
		// Promote so a hot entry survives generation rotation.
		if s.cur == nil {
			s.cur = make(map[gcrypto.Hash]struct{})
		}
		s.cur[key] = struct{}{}
		sigCacheHits.Add(1)
		return true
	}
	sigCacheMisses.Add(1)
	return false
}

func sigCacheStore(key gcrypto.Hash) {
	s := &sigCache[key[0]&(sigCacheStripes-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		s.cur = make(map[gcrypto.Hash]struct{})
	}
	s.cur[key] = struct{}{}
	if len(s.cur) >= sigCacheStripeCap {
		s.prev = s.cur
		s.cur = make(map[gcrypto.Hash]struct{})
	}
}

// sigCacheUsable reports whether the cache may serve or record
// verdicts. Verification verdicts recorded while real crypto is
// disabled (simulation sweeps) would be unsound once re-enabled, so
// the cache stands down entirely in that mode.
func sigCacheUsable() bool {
	return sigCacheEnabled.Load() && gcrypto.VerificationEnabled()
}

// VerifyCached is Verify with signature memoization: structural checks
// always run (they are cheap and stateless), the ed25519 check is
// skipped when this exact (content, signature) pair has already been
// accepted. Accept/reject behaviour is identical to Verify.
func (tx *Transaction) VerifyCached() error {
	if !sigCacheUsable() {
		return tx.Verify()
	}
	if err := tx.verifyStructure(); err != nil {
		return err
	}
	key := sigCacheKey(tx)
	if sigCacheLookup(key) {
		return nil
	}
	if err := tx.verifySignature(); err != nil {
		return err
	}
	sigCacheStore(key)
	return nil
}

// voteCacheKey binds a cached vote verdict to the exact endorser,
// signed bytes, and signature bytes. The address stands in for the
// public key: gcrypto.Verify enforces the pub↔address binding, so
// (address, signed bytes, signature) fully determines the verdict.
func voteCacheKey(endorser gcrypto.Address, signed, sig []byte) gcrypto.Hash {
	return gcrypto.HashConcat([]byte("vote"), endorser[:], signed, sig)
}

// NoteVote enters a certificate vote into the vote cache. The caller
// vouches for it: it signed the vote itself, or it has just verified the
// commit envelope whose seal the vote is. Every such vote comes back
// once more, inside the assembled certificate, when the block is added
// to the chain, and Certificate.Verify then finds it here; a vote nobody
// vouched for — a synced block's, a late joiner's — is verified there.
func NoteVote(endorser gcrypto.Address, signed, sig []byte) {
	if sigCacheUsable() {
		sigCacheStore(voteCacheKey(endorser, signed, sig))
	}
}

// VerifyTxs verifies a batch of transactions, returning one result
// slot per index — errs[i] is exactly what txs[i].Verify() would
// return. Structural checks run serially (cheap); signature checks not
// already memoized fan out over the gcrypto batch verifier, and fresh
// successes are recorded in the cache.
func VerifyTxs(txs []Transaction) []error {
	errs := make([]error, len(txs))
	if len(txs) == 0 {
		return errs
	}
	if !sigCacheUsable() && gcrypto.BatchWorkers() <= 1 {
		for i := range txs {
			errs[i] = txs[i].Verify()
		}
		return errs
	}
	useCache := sigCacheUsable()
	// Pass 1: structure, cache lookups, and batch assembly.
	items := make([]gcrypto.BatchItem, 0, len(txs))
	itemIdx := make([]int, 0, len(txs))
	keys := make([]gcrypto.Hash, len(txs))
	for i := range txs {
		tx := &txs[i]
		if err := tx.verifyStructure(); err != nil {
			errs[i] = err
			continue
		}
		if useCache {
			keys[i] = sigCacheKey(tx)
			if sigCacheLookup(keys[i]) {
				continue
			}
		}
		items = append(items, gcrypto.BatchItem{
			Pub:  tx.SenderPub,
			Addr: tx.Sender,
			Msg:  tx.signingBytes(),
			Sig:  tx.Signature,
		})
		itemIdx = append(itemIdx, i)
	}
	// Pass 2: the remaining signature checks, across all cores.
	for k, err := range gcrypto.VerifyBatch(items) {
		i := itemIdx[k]
		if err != nil {
			errs[i] = wrapTxSigError(err)
			continue
		}
		if useCache {
			sigCacheStore(keys[i])
		}
	}
	return errs
}

// PrewarmTxs verifies transactions purely to populate the signature
// cache — the pipelining hook: a pre-prepare's transaction batch is
// warmed on a verification worker while the consensus loop is still
// finishing the previous instance, so the serial ValidateBlock that
// follows runs at cache speed. Failures are ignored here; the serial
// validation path re-derives and reports them authoritatively.
func PrewarmTxs(txs []Transaction) {
	if !sigCacheUsable() {
		return
	}
	_ = VerifyTxs(txs)
}
