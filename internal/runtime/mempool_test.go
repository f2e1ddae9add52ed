package runtime

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// TestMempoolShardsFIFOAcrossShards admits transactions that land in
// different shards and checks Peek still returns pool-wide admission
// order.
func TestMempoolShardsFIFOAcrossShards(t *testing.T) {
	p := NewMempoolShards(1000, 8)
	var want []gcrypto.Hash
	for i := 0; i < 64; i++ {
		tx := mkTx(0, uint64(1000+i))
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
		want = append(want, tx.ID())
	}
	got := p.Peek(64)
	if len(got) != 64 {
		t.Fatalf("Peek returned %d", len(got))
	}
	shardsSeen := map[uint32]bool{}
	for i := range got {
		if got[i].ID() != want[i] {
			t.Fatalf("index %d out of admission order", i)
		}
		shardsSeen[uint32(want[i][0])&p.mask] = true
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("fixture too narrow: all txs landed in %d shard(s)", len(shardsSeen))
	}
}

func TestMempoolShardClamping(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultMempoolShards}, {1, 1}, {3, 4}, {16, 16}, {100, 128}, {1000, 256},
	} {
		p := NewMempoolShards(10, tc.in)
		if len(p.shards) != tc.want {
			t.Errorf("shards(%d) = %d, want %d", tc.in, len(p.shards), tc.want)
		}
	}
}

// TestMempoolNoDoubleCommit: a tx marked committed by two concurrent
// reapers is accounted as removed exactly once — the guard against a
// tx being claimed into two blocks.
func TestMempoolNoDoubleCommit(t *testing.T) {
	p := NewMempoolShards(100, 0)
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
	p := NewMempoolShards(capacity, 16)
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
	p := NewMempoolShards(2, 4)
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
	want := PoolStats{Pending: 0, Shards: 4, Admitted: 2, RejectedFull: 1, RejectedDup: 1, Dropped: 1, Committed: 1, ShardDepths: []int{0, 0, 0, 0}}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}
