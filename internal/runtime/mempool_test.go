package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// TestMempoolNoDoubleCommit: a tx marked committed by two concurrent
// reapers is accounted as removed exactly once — the guard against a
// tx being claimed into two blocks.
func TestMempoolNoDoubleCommit(t *testing.T) {
	p := NewMempool(100, nil)
	txs := make([]types.Transaction, 50)
	for i := range txs {
		tx := mkTx(0, uint64(i))
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
		txs[i] = *tx
	}
	var removed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			removed.Add(int64(p.MarkCommitted(txs)))
		}()
	}
	wg.Wait()
	if removed.Load() != 50 {
		t.Fatalf("concurrent MarkCommitted removed %d txs, want exactly 50", removed.Load())
	}
	if p.Len() != 0 {
		t.Fatalf("Len=%d after full commit", p.Len())
	}
}

// TestMempoolHammer runs a seeded 100-goroutine mix of add, peek,
// commit, and drop, then checks the conservation and bound invariants:
// every admitted tx is still pending or accounted for by exactly one
// removal counter, the size bound was never exceeded, and no tx was
// committed twice.
func TestMempoolHammer(t *testing.T) {
	const (
		goroutines = 100
		perG       = 40
		capacity   = 512
	)
	p := NewMempool(capacity, nil)
	var wg sync.WaitGroup
	var overCap atomic.Bool
	var committedTotal atomic.Int64
	committedIDs := make([]map[gcrypto.Hash]int, goroutines)

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		committedIDs[g] = make(map[gcrypto.Hash]int)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + g)))
			for i := 0; i < perG; i++ {
				tx := mkTx(g%8, uint64(g*perG+i))
				err := p.Add(tx)
				if err != nil && err != ErrPoolFull && err != ErrTxDuplicate {
					t.Errorf("unexpected Add error: %v", err)
					return
				}
				if p.Len() > capacity {
					overCap.Store(true)
				}
				switch rng.Intn(4) {
				case 0: // reap a batch and commit it
					batch := p.Peek(1 + rng.Intn(8))
					n := p.MarkCommitted(batch)
					committedTotal.Add(int64(n))
					for j := range batch {
						committedIDs[g][batch[j].ID()]++
					}
				case 1: // drop something (maybe already gone)
					p.Drop(tx.ID())
				case 2:
					p.Contains(tx.ID())
					p.WasCommitted(tx.ID())
				default: // just add
				}
			}
		}(g)
	}
	wg.Wait()

	if overCap.Load() {
		t.Error("size bound exceeded during hammer")
	}
	st := p.Stats()
	if st.Pending != p.Len() {
		t.Errorf("stats pending %d != Len %d", st.Pending, p.Len())
	}
	// Conservation: admitted = still-pending + committed + dropped.
	if got := uint64(st.Pending) + st.Committed + st.Dropped; got != st.Admitted {
		t.Errorf("conservation violated: pending(%d)+committed(%d)+dropped(%d)=%d, admitted=%d",
			st.Pending, st.Committed, st.Dropped, got, st.Admitted)
	}
	if st.Committed != uint64(committedTotal.Load()) {
		t.Errorf("Committed counter %d != MarkCommitted return sum %d", st.Committed, committedTotal.Load())
	}
	// No tx claimed into two "blocks": the same ID must not have been
	// removed-as-pending more than once across all reapers. Peek can
	// legitimately show an ID to two reapers; MarkCommitted's return
	// value is what arbitrates ownership, and the counter sum above
	// already proved total removals equal unique removals iff no ID was
	// double-counted — verify directly by recomputing unique IDs.
	unique := make(map[gcrypto.Hash]bool)
	for g := range committedIDs {
		for id := range committedIDs[g] {
			unique[id] = true
		}
	}
	if uint64(len(unique)) < st.Committed {
		t.Errorf("committed counter %d exceeds %d unique committed IDs", st.Committed, len(unique))
	}
	// Every tx the pool still claims as pending really is peekable.
	rest := p.Peek(capacity + 1)
	if len(rest) != st.Pending {
		t.Errorf("Peek(all) returned %d, pending %d", len(rest), st.Pending)
	}
}

// TestMempoolStatsCounters pins each counter to its trigger.
func TestMempoolStatsCounters(t *testing.T) {
	p := NewMempool(2, nil)
	tx1, tx2, tx3 := mkTx(0, 1), mkTx(0, 2), mkTx(0, 3)
	if err := p.Add(tx1); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx1); err != ErrTxDuplicate {
		t.Fatalf("want dup, got %v", err)
	}
	if err := p.Add(tx2); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx3); err != ErrPoolFull {
		t.Fatalf("want full, got %v", err)
	}
	p.Drop(tx2.ID())
	if n := p.MarkCommitted([]types.Transaction{*tx1}); n != 1 {
		t.Fatalf("MarkCommitted removed %d", n)
	}
	st := p.Stats()
	want := PoolStats{Pending: 0, Admitted: 2, RejectedFull: 1, RejectedDup: 1, Dropped: 1, Committed: 1}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

// poolScheduleDigest drives a seeded sequence of adds from eight
// identities (control and data types mixed, re-adds of pending and
// dropped transactions included), peeks, commits of a peeked prefix and
// drops against p, and hashes everything the pool returns: Add errors,
// Peek IDs in order, MarkCommitted counts, Len and the Stats counters.
// A committed ID is never re-added, so the digest does not depend on
// how long the pool remembers commits. It also reports how many adds
// were rejected full and how many transactions were evicted, so a
// caller can check the capacity was small enough to force both paths.
func poolScheduleDigest(t *testing.T, p *Mempool, ops int) (string, PoolStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(50))
	h := sha256.New()
	var issued []*types.Transaction
	committed := make(map[gcrypto.Hash]bool)
	nonce := uint64(0)
	// reusable picks an issued transaction that never committed, or nil.
	reusable := func() *types.Transaction {
		for tries := 0; tries < 8 && len(issued) > 0; tries++ {
			if tx := issued[rng.Intn(len(issued))]; !committed[tx.ID()] {
				return tx
			}
		}
		return nil
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(20); {
		case r < 11: // add
			tx := (*types.Transaction)(nil)
			if rng.Intn(5) == 0 {
				tx = reusable()
			}
			if tx == nil {
				nonce++
				ident := rng.Intn(8)
				if rng.Intn(4) == 0 {
					tx = mkReport(ident, nonce)
				} else {
					tx = mkTx(ident, nonce)
				}
				issued = append(issued, tx)
			}
			err := p.Add(tx)
			fmt.Fprintf(h, "add %x %v\n", tx.ID(), err)
		case r < 14: // peek
			got := p.Peek(rng.Intn(40))
			fmt.Fprintf(h, "peek %d", len(got))
			for i := range got {
				fmt.Fprintf(h, " %x", got[i].ID())
			}
			fmt.Fprintln(h)
		case r < 17: // commit a peeked prefix
			got := p.Peek(rng.Intn(8))
			got = got[:rng.Intn(len(got)+1)]
			for i := range got {
				committed[got[i].ID()] = true
			}
			fmt.Fprintf(h, "commit %d\n", p.MarkCommitted(got))
		default: // drop
			if tx := reusable(); tx != nil {
				p.Drop(tx.ID())
				fmt.Fprintf(h, "drop %x\n", tx.ID())
			}
		}
		st := p.Stats()
		fmt.Fprintf(h, "len %d stats %d %d %d %d %d %d %d %v\n", p.Len(),
			st.Pending, st.Admitted, st.RejectedFull, st.RejectedDup,
			st.Dropped, st.Committed, st.EvictedShed, st.Lanes)
	}
	return hex.EncodeToString(h.Sum(nil)), p.Stats()
}

// TestPoolScheduleDigest pins what the pool returns over a long seeded
// schedule, with and without lanes: a change to any admission, peek
// order, commit count or counter changes a digest.
func TestPoolScheduleDigest(t *testing.T) {
	const ops, capacity = 6000, 64
	for _, tc := range []struct {
		name string
		pool *Mempool
		want string
	}{
		{"no-lanes", NewMempool(capacity, nil), "ed6e2964bc6b1acbbcc19754fb0e61e7ef68f92cea4395f3193dd0d8bb579710"},
		{"lanes", NewMempool(capacity, &QoSConfig{FairShare: 4}), "f8f5bd44afe9964095d8abc154929adcda4dd7da2947246c8c56566ce7fd0002"},
	} {
		got, st := poolScheduleDigest(t, tc.pool, ops)
		if st.RejectedFull == 0 || st.RejectedDup == 0 || st.Dropped == 0 || st.Committed == 0 {
			t.Errorf("%s: schedule too gentle, some path never ran: %+v", tc.name, st)
		}
		if tc.name == "lanes" && st.EvictedShed == 0 {
			t.Errorf("%s: no eviction forced: %+v", tc.name, st)
		}
		if got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
