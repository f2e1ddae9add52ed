package main

// gen.go is the load side: the tracker that stops each offered
// transaction's clock at its first commit anywhere in the cluster, and
// the two generators (open loop on a due-time schedule, closed loop on
// a fixed number outstanding). Nothing here touches the program under
// test; the generators only call the submit function they are given.

import (
	"sync"
	"sync/atomic"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// notCommitted marks an offered transaction that has no commit yet.
const notCommitted = time.Duration(-1)

// tracker maps offered transactions to their due and commit times.
// Times are offsets on the run's clock: wall time since the cluster
// epoch on TCP, virtual time on the simulator.
type tracker struct {
	mu      sync.Mutex
	index   map[gcrypto.Hash]int32 // tx id -> offered index; <0 for warm-up
	due     []time.Duration
	commit  []time.Duration
	refused []bool

	seen       map[uint64]gcrypto.Hash // height -> first block hash observed
	blocks     int
	blockTxs   int
	lastBlock  time.Duration // previous first-commit inside the window; <0 for none
	gapMax     time.Duration
	gapFrom    time.Duration // commit gaps are measured from here on; <0 for not yet
	committedN atomic.Int64  // tracked txs committed so far

	warmDone int // warm-up txs committed

	// violations of the output checks seen while running.
	dupCommits int // a tracked tx committed at a second height
	forks      int // two nodes reported different blocks at one height

	onCommit func() // closed loop: wake the generator
}

func newTracker(capacity int) *tracker {
	return &tracker{
		index: make(map[gcrypto.Hash]int32, capacity),
		seen:  make(map[uint64]gcrypto.Hash),

		lastBlock: -1,
		gapFrom:   -1,
	}
}

// measureGapsFrom opens the window in which gaps between consecutive
// block commits count towards gapMax.
func (t *tracker) measureGapsFrom(at time.Duration) {
	t.mu.Lock()
	t.gapFrom, t.lastBlock, t.gapMax = at, -1, 0
	t.mu.Unlock()
}

// offer registers a measured transaction and returns its index.
func (t *tracker) offer(tx *types.Transaction) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := len(t.due)
	t.index[tx.ID()] = int32(k)
	t.due = append(t.due, 0)
	t.commit = append(t.commit, notCommitted)
	t.refused = append(t.refused, false)
	return k
}

// warmup registers a transaction that is offered but not measured.
func (t *tracker) warmup(tx *types.Transaction) {
	t.mu.Lock()
	t.index[tx.ID()] = -1
	t.mu.Unlock()
}

func (t *tracker) setDue(k int, at time.Duration) {
	t.mu.Lock()
	t.due[k] = at
	t.mu.Unlock()
}

func (t *tracker) refuse(k int) {
	t.mu.Lock()
	t.refused[k] = true
	t.mu.Unlock()
}

// observe is every node's commit hook. The first node to report a
// height stops the clocks of the block's transactions; later reports
// of the same height are only compared against it.
func (t *tracker) observe(_ int, now time.Duration, b *types.Block) {
	h := b.Header.Height
	hash := b.Hash()
	t.mu.Lock()
	if first, ok := t.seen[h]; ok {
		if first != hash {
			t.forks++
		}
		t.mu.Unlock()
		return
	}
	t.seen[h] = hash
	t.blocks++
	t.blockTxs += len(b.Txs)
	if t.gapFrom >= 0 && now >= t.gapFrom {
		if t.lastBlock >= 0 && now-t.lastBlock > t.gapMax {
			t.gapMax = now - t.lastBlock
		}
		t.lastBlock = now
	}
	stopped := 0
	for i := range b.Txs {
		k, ok := t.index[b.Txs[i].ID()]
		switch {
		case !ok:
		case k < 0:
			t.warmDone++
		case t.commit[k] != notCommitted:
			t.dupCommits++
		default:
			t.commit[k] = now
			stopped++
		}
	}
	t.mu.Unlock()
	if stopped > 0 {
		t.committedN.Add(int64(stopped))
		if t.onCommit != nil {
			t.onCommit()
		}
	}
}

// txSpans adds a due -> first-commit span for the first offered
// transactions to the trace's generator lane.
func (t *tracker) txSpans(trace *tracer, epoch time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := 0; k < len(t.due) && k < maxCaptured; k++ {
		if t.commit[k] != notCommitted {
			trace.genSpan(spanTx, uint64(k), trace.since(epoch.Add(t.due[k])), trace.since(epoch.Add(t.commit[k])))
		}
	}
}

// openLoop offers total transactions, transaction k being due at
// first + k*interval on the run's clock. submit is synchronous, so a
// stall delays every later send; latency is measured from the due
// time, which charges that delay, and lag records how late each send
// actually started. sleep is time.Sleep everywhere but in the test,
// which drives the loop on a virtual clock so its assertions are exact.
func openLoop(clock func() time.Duration, sleep func(time.Duration), first, interval time.Duration, total int, submit func(k int, due time.Duration)) (lag []time.Duration) {
	lag = make([]time.Duration, total)
	for k := 0; k < total; k++ {
		due := first + time.Duration(k)*interval
		now := clock()
		for now < due {
			sleep(due - now)
			now = clock()
		}
		lag[k] = now - due
		submit(k, due)
	}
	return lag
}

// closedLoop keeps up to outstanding transactions in flight until the
// clock passes until: it submits while fewer are uncommitted and
// otherwise waits for a commit. inFlight reports submitted-minus-
// committed; wake is signalled by the tracker on every commit.
func closedLoop(clock func() time.Duration, until time.Duration, outstanding int, inFlight func() int, wake <-chan struct{}, submit func(k int, at time.Duration)) (sent int) {
	for {
		now := clock()
		if now >= until {
			return sent
		}
		if inFlight() >= outstanding {
			select {
			case <-wake:
			case <-time.After(until - now):
			}
			continue
		}
		submit(sent, now)
		sent++
	}
}
