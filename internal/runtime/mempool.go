// Package runtime wires an engine to a chain: the mempool, the
// Application implementation engines build and validate blocks
// through, and the Node wrapper that executes engine actions against a
// pluggable executor (the discrete-event simulator or the real-time
// transport runner).
package runtime

import (
	"errors"
	"sync"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// DefaultMempoolCap bounds the pending pool.
const DefaultMempoolCap = 100000

// Errors returned by the mempool.
var (
	ErrPoolFull    = errors.New("runtime: mempool full")
	ErrTxDuplicate = errors.New("runtime: transaction already pending or committed")
)

// Lane is a mempool priority class. Lower values are served first by
// the weighted scheduler and shed last by the degradation controller.
type Lane uint8

// Priority lanes.
const (
	// LaneControl carries protocol-critical traffic: config changes,
	// evidence, witness statements and location reports.
	LaneControl Lane = iota
	// LaneNormal carries data transactions from identities within
	// their fair share of the pool.
	LaneNormal
	// LaneBulk carries data transactions from identities over their
	// fair share — the first lane evicted and shed under load.
	LaneBulk

	laneCount = 3
)

// String names the lane (Prometheus label values).
func (l Lane) String() string {
	switch l {
	case LaneControl:
		return "control"
	case LaneNormal:
		return "normal"
	case LaneBulk:
		return "bulk"
	default:
		return "unknown"
	}
}

// laneForType maps a transaction type to its base lane; per-identity
// fair-share accounting may demote data traffic to LaneBulk.
func laneForType(t types.TxType) Lane {
	if t.Control() {
		return LaneControl
	}
	return LaneNormal
}

// QoSConfig enables priority lanes and per-identity fair-share
// accounting in the mempool; NewMempool fills its zero values with
// defaults.
type QoSConfig struct {
	// LaneWeights are the scheduler weights for control/normal/bulk:
	// per scheduling cycle Peek takes up to LaneWeights[l] transactions
	// from lane l (in lane order), so even the bulk lane keeps a
	// bounded share instead of starving. Zeros select 8/4/1.
	LaneWeights [laneCount]int
	// FairShare is how many data transactions one identity may have
	// pending before its overflow is demoted to LaneBulk (0 = 16).
	FairShare int
}

func (c *QoSConfig) fill() {
	if c.LaneWeights == ([laneCount]int{}) {
		c.LaneWeights = [laneCount]int{8, 4, 1}
	}
	for i := range c.LaneWeights {
		if c.LaneWeights[i] < 0 {
			c.LaneWeights[i] = 0
		}
	}
	if c.FairShare <= 0 {
		c.FairShare = 16
	}
}

// oneLane is the configuration of a pool without lanes: every
// transaction rides LaneNormal, served first in, first out.
var oneLane = QoSConfig{LaneWeights: [laneCount]int{LaneNormal: 1}}

// PoolStats is a snapshot of mempool backpressure counters; all are
// cumulative since pool creation except Pending and Lanes.
type PoolStats struct {
	Pending      int    // transactions currently admitted and unreaped
	Admitted     uint64 // successful Add calls
	RejectedFull uint64 // Add rejections due to the size bound
	RejectedDup  uint64 // Add rejections due to duplicate suppression
	Dropped      uint64 // admitted txs removed via Drop
	Committed    uint64 // admitted txs removed because they committed
	// EvictedShed counts admitted txs evicted at capacity to make room
	// for higher-priority traffic (pools with lanes only).
	EvictedShed uint64
	// Lanes is the current per-lane depth (all zero without lanes).
	Lanes [laneCount]int
}

// poolEntry is one admitted transaction. A removed entry is marked gone
// and stays in its lane's queue (and its sender's refs) until the next
// compaction, so removal never searches a queue.
type poolEntry struct {
	tx   *types.Transaction
	lane Lane
	gone bool
}

// laneQueue holds one lane's entries in admission order. Entries before
// head are all gone; live counts the entries not gone.
type laneQueue struct {
	q    []*poolEntry
	head int
	live int
}

// remove marks e gone, skips the gone prefix, and compacts once gone
// entries outnumber live ones, which keeps removal O(1) amortized and
// Peek proportional to what it returns.
func (lq *laneQueue) remove(e *poolEntry) {
	e.gone = true
	lq.live--
	for lq.head < len(lq.q) && lq.q[lq.head].gone {
		lq.head++
	}
	if len(lq.q)-lq.live > lq.live+32 {
		kept := lq.q[:0]
		for _, e := range lq.q[lq.head:] {
			if !e.gone {
				kept = append(kept, e)
			}
		}
		clear(lq.q[len(kept):])
		lq.q, lq.head = kept, 0
	}
}

// identLoad tracks one identity's pending transactions per lane; refs
// holds its entries per lane, newest last, gone ones included until
// compaction.
type identLoad struct {
	pending [laneCount]int
	refs    [laneCount][]*poolEntry
}

func (il *identLoad) total() int {
	n := 0
	for _, p := range il.pending {
		n += p
	}
	return n
}

// Mempool is the pending transaction pool: duplicate suppression, an
// exact size bound, backpressure counters and one FIFO queue per lane.
// Without lanes every transaction rides one lane and a newcomer is
// rejected at capacity. With lanes, Peek serves them by weight,
// identities over their fair share are demoted to the bulk lane, and at
// capacity the heaviest identity's newest transaction is evicted for
// higher-priority traffic. The pool is safe for concurrent use, but in a
// node every mutation runs on the event loop, so its one mutex is
// contended only by readers on other goroutines: the transport's
// admission gate and the metrics scrape.
type Mempool struct {
	mu    sync.Mutex
	cap   int
	lanes bool // priority lanes and identity accounting on
	cfg   QoSConfig

	pending map[gcrypto.Hash]*poolEntry
	queues  [laneCount]laneQueue
	ident   map[gcrypto.Address]*identLoad // lanes only

	// committed and oldGen are two generations of committed IDs, each
	// at most 4 × capacity; re-submissions of either are suppressed.
	committed, oldGen map[gcrypto.Hash]struct{}

	st PoolStats // cumulative counters; Pending and Lanes are filled by Stats
}

// NewMempool creates a pool holding at most capacity transactions
// (0 = DefaultMempoolCap). A nil qos gives it no lanes; otherwise qos's
// zero values select the default weights and fair share.
func NewMempool(capacity int, qos *QoSConfig) *Mempool {
	if capacity <= 0 {
		capacity = DefaultMempoolCap
	}
	m := &Mempool{
		cap:       capacity,
		lanes:     qos != nil,
		cfg:       oneLane,
		pending:   make(map[gcrypto.Hash]*poolEntry),
		committed: make(map[gcrypto.Hash]struct{}),
	}
	if m.lanes {
		m.cfg = *qos
		m.cfg.fill()
		m.ident = make(map[gcrypto.Address]*identLoad)
	}
	return m
}

// NewMempoolShards is NewMempool(capacity, nil): shards is ignored. It
// keeps the benchmark under bench/ building.
func NewMempoolShards(capacity, shards int) *Mempool { return NewMempool(capacity, nil) }

// Add inserts a transaction unless it is already pending, was
// committed recently, or the pool is at capacity. A pool with lanes at
// capacity first tries to evict the heaviest identity's newest
// transaction from the lowest-priority lane at or below the incoming
// lane.
func (m *Mempool) Add(tx *types.Transaction) error {
	id := tx.ID()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending[id] != nil || m.wasCommitted(id) {
		m.st.RejectedDup++
		return ErrTxDuplicate
	}
	lane := m.classify(tx)
	if len(m.pending) >= m.cap && !m.evictFor(lane, tx.Sender) {
		m.st.RejectedFull++
		return ErrPoolFull
	}
	e := &poolEntry{tx: tx, lane: lane}
	m.pending[id] = e
	lq := &m.queues[lane]
	lq.q = append(lq.q, e)
	lq.live++
	if m.lanes {
		il := m.ident[tx.Sender]
		if il == nil {
			il = &identLoad{}
			m.ident[tx.Sender] = il
		}
		il.pending[lane]++
		il.refs[lane] = append(il.refs[lane], e)
	}
	m.st.Admitted++
	return nil
}

// classify maps tx to the lane it is admitted into: without lanes,
// LaneNormal; with lanes, control types ride the control lane and data
// traffic is demoted to bulk once its sender is over its fair share.
func (m *Mempool) classify(tx *types.Transaction) Lane {
	if !m.lanes {
		return LaneNormal
	}
	lane := laneForType(tx.Type)
	if lane != LaneNormal {
		return lane
	}
	if il := m.ident[tx.Sender]; il != nil &&
		il.pending[LaneNormal]+il.pending[LaneBulk] >= m.cfg.FairShare {
		return LaneBulk
	}
	return LaneNormal
}

// ClassifyLane reports which lane tx would be admitted into right now
// (admission control uses it to shed bulk traffic before it is even
// pooled). A pool without lanes classifies by type only.
func (m *Mempool) ClassifyLane(tx *types.Transaction) Lane {
	if !m.lanes {
		return laneForType(tx.Type)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.classify(tx)
}

// evictFor frees one slot for an incoming transaction in lane from
// sender: scanning lanes from bulk upward but never above the incoming
// lane, it picks the identity with the most pending entries in that
// lane (ties broken by address order, so eviction is deterministic) and
// evicts its newest transaction. It returns false — reject the
// newcomer instead — without lanes, when no eligible victim exists, or
// when the newcomer's own identity is the heaviest.
func (m *Mempool) evictFor(lane Lane, sender gcrypto.Address) bool {
	if !m.lanes {
		return false
	}
	for vl := LaneBulk; ; vl-- {
		if m.queues[vl].live > 0 {
			var victim gcrypto.Address
			var vload *identLoad
			for addr, il := range m.ident {
				if il.pending[vl] == 0 {
					continue
				}
				if vload == nil || il.pending[vl] > vload.pending[vl] ||
					(il.pending[vl] == vload.pending[vl] && addr.Less(victim)) {
					victim, vload = addr, il
				}
			}
			if vload != nil {
				if victim == sender {
					// Evicting the newcomer's own older traffic to admit
					// its newer traffic just churns the pool: reject.
					return false
				}
				refs := vload.refs[vl]
				for refs[len(refs)-1].gone {
					refs = refs[:len(refs)-1]
				}
				vload.refs[vl] = refs
				m.remove(refs[len(refs)-1])
				m.st.EvictedShed++
				return true
			}
		}
		if vl == lane {
			return false
		}
	}
}

// remove takes a pending entry out of the pool and, with lanes, out of
// its sender's accounting.
func (m *Mempool) remove(e *poolEntry) {
	delete(m.pending, e.tx.ID())
	m.queues[e.lane].remove(e)
	if !m.lanes {
		return
	}
	il := m.ident[e.tx.Sender]
	il.pending[e.lane]--
	if il.total() == 0 {
		delete(m.ident, e.tx.Sender)
		return
	}
	// Compact the ref list once gone entries dominate, so a long-lived
	// busy identity cannot grow it without bound.
	if refs := il.refs[e.lane]; len(refs) > 2*il.pending[e.lane]+32 {
		kept := refs[:0]
		for _, r := range refs {
			if !r.gone {
				kept = append(kept, r)
			}
		}
		clear(refs[len(kept):])
		il.refs[e.lane] = kept
	}
}

// Peek returns up to n transactions without removing them. Each
// scheduling cycle takes up to LaneWeights[l] of the oldest transactions
// from lane l, control first, so overload in one lane cannot starve the
// others; a lane of weight zero is served only when the others are
// empty. Without lanes this is plain admission order.
func (m *Mempool) Peek(n int) []types.Transaction {
	if n <= 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]types.Transaction, 0, min(n, len(m.pending)))
	var cur [laneCount]int
	for l := range cur {
		cur[l] = m.queues[l].head
	}
	// more advances lane l's cursor past gone entries and reports
	// whether a live one is left.
	more := func(l int) bool {
		q := m.queues[l].q
		for cur[l] < len(q) && q[cur[l]].gone {
			cur[l]++
		}
		return cur[l] < len(q)
	}
	for len(out) < n {
		took := false
		for l := 0; l < laneCount && len(out) < n; l++ {
			quota := m.cfg.LaneWeights[l]
			if quota <= 0 {
				if !more(l) || more((l+1)%laneCount) || more((l+2)%laneCount) {
					continue
				}
				quota = 1
			}
			for k := 0; k < quota && len(out) < n && more(l); k++ {
				out = append(out, *m.queues[l].q[cur[l]].tx)
				cur[l]++
				took = true
			}
		}
		if !took {
			break
		}
	}
	return out
}

// MarkCommitted removes the given transactions from the pool and
// remembers their IDs so re-submissions are suppressed; it returns how
// many of them were actually pending (and are now accounted under the
// Committed counter).
func (m *Mempool) MarkCommitted(txs []types.Transaction) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := 0
	for i := range txs {
		id := txs[i].ID()
		if e := m.pending[id]; e != nil {
			m.remove(e)
			removed++
		}
		m.committed[id] = struct{}{}
		if len(m.committed) > 4*m.cap {
			m.oldGen, m.committed = m.committed, make(map[gcrypto.Hash]struct{})
		}
	}
	m.st.Committed += uint64(removed)
	return removed
}

// Drop removes a pending transaction without remembering it as
// committed.
func (m *Mempool) Drop(id gcrypto.Hash) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.pending[id]; e != nil {
		m.remove(e)
		m.st.Dropped++
	}
}

// Len returns the number of pending transactions.
func (m *Mempool) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Cap returns the configured capacity bound.
func (m *Mempool) Cap() int { return m.cap }

// PendingOf returns how many data-lane transactions the identity has
// pending (0 without lanes, which do no identity accounting).
func (m *Mempool) PendingOf(sender gcrypto.Address) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	il := m.ident[sender]
	if il == nil {
		return 0
	}
	return il.pending[LaneNormal] + il.pending[LaneBulk]
}

// Contains reports whether a transaction is pending.
func (m *Mempool) Contains(id gcrypto.Hash) bool { return m.Get(id) != nil }

// Get returns the pending transaction with the given ID, or nil. Backups
// assemble a proposal's block from it: a pre-prepare names pooled
// transactions by ID.
func (m *Mempool) Get(id gcrypto.Hash) *types.Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.pending[id]; e != nil {
		return e.tx
	}
	return nil
}

// WasCommitted reports whether the pool remembers the tx as committed.
func (m *Mempool) WasCommitted(id gcrypto.Hash) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wasCommitted(id)
}

func (m *Mempool) wasCommitted(id gcrypto.Hash) bool {
	_, recent := m.committed[id]
	_, old := m.oldGen[id]
	return recent || old
}

// Stats snapshots the pool's backpressure counters.
func (m *Mempool) Stats() PoolStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.st
	st.Pending = len(m.pending)
	if m.lanes {
		for l := range st.Lanes {
			st.Lanes[l] = m.queues[l].live
		}
	}
	return st
}
