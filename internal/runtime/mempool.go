// Package runtime wires an engine to a chain: the mempool, the
// Application implementation engines build and validate blocks
// through, and the Node wrapper that executes engine actions against a
// pluggable executor (the discrete-event simulator or the real-time
// transport runner).
package runtime

import (
	"errors"
	"sync"
	"sync/atomic"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// DefaultMempoolCap bounds the pending pool.
const DefaultMempoolCap = 100000

// DefaultMempoolShards is the lock-stripe count: submission arrives
// concurrently from every peer connection, and a single mutex became
// the hot path's first serialization point. Must be a power of two no
// greater than 256 (the shard index is one masked byte of the tx ID).
const DefaultMempoolShards = 16

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
// accounting in the mempool. The zero value is never used directly:
// pass it to NewMempoolQoS, which fills defaults.
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

// identLoad tracks one identity's pending transactions per lane.
// refs holds that identity's admitted tx IDs per lane, newest last;
// entries removed by commit/drop go stale in place and are skipped (and
// periodically compacted) rather than searched for, keeping the hot
// removal path O(1).
type identLoad struct {
	pending [laneCount]int
	refs    [laneCount][]gcrypto.Hash
}

func (il *identLoad) total() int {
	n := 0
	for _, p := range il.pending {
		n += p
	}
	return n
}

// qosState is the lane bookkeeping, guarded by its own mutex. Lock
// order: qosState.mu strictly before any poolShard.mu; Peek takes only
// shard locks (one at a time) and never qosState.mu.
type qosState struct {
	cfg   QoSConfig
	mu    sync.Mutex
	ident map[gcrypto.Address]*identLoad
}

// PoolStats is a snapshot of mempool backpressure counters; all are
// cumulative since pool creation except Pending and Lanes.
type PoolStats struct {
	Pending      int    // transactions currently admitted and unreaped
	Shards       int    // configured shard count
	Admitted     uint64 // successful Add calls
	RejectedFull uint64 // Add rejections due to the size bound
	RejectedDup  uint64 // Add rejections due to duplicate suppression
	Dropped      uint64 // admitted txs removed via Drop (stale proposals)
	Committed    uint64 // admitted txs removed because they committed
	// EvictedShed counts admitted txs evicted at capacity to make room
	// for higher-priority traffic (QoS pools only).
	EvictedShed uint64
	// Lanes is the current per-lane depth (all zero without QoS).
	Lanes [laneCount]int
	// ShardDepths is the current pending count per lock stripe,
	// index-aligned with the shard table. A skewed profile means one
	// stripe's senders dominate the pool — the early-warning signal for
	// region imbalance before it becomes a latency cliff.
	ShardDepths []int
}

// poolEntry is one admitted transaction with its global admission
// ticket; tickets order the merged FIFO view across shards. lane and
// sender are only populated (and consulted) by QoS pools.
type poolEntry struct {
	id     gcrypto.Hash
	seq    uint64
	tx     *types.Transaction
	lane   Lane
	sender gcrypto.Address
}

// poolShard owns the transactions whose ID hashes into it. The queue
// is kept in admission order: tickets are taken under the shard lock,
// so each shard's queue is sorted by seq even though tickets are
// issued from a global counter.
type poolShard struct {
	mu        sync.Mutex
	queue     []poolEntry
	pending   map[gcrypto.Hash]*types.Transaction
	committed map[gcrypto.Hash]bool
	oldGen    map[gcrypto.Hash]bool // previous committed generation
	genLimit  int
}

func (s *poolShard) removeQueued(id gcrypto.Hash) (poolEntry, bool) {
	var removed poolEntry
	found := false
	filtered := s.queue[:0]
	for _, e := range s.queue {
		if e.id != id {
			filtered = append(filtered, e)
		} else {
			removed, found = e, true
		}
	}
	s.queue = filtered
	return removed, found
}

// Mempool is a sharded FIFO transaction pool with duplicate
// suppression, an exact global size bound, and backpressure counters;
// safe for concurrent use. Transactions are striped over shards by ID
// so concurrent submitters rarely contend on a lock, while a global
// admission ticket preserves the pool-wide FIFO order Peek returns.
type Mempool struct {
	shards []poolShard
	mask   uint32
	cap    int

	// qos is nil for plain FIFO pools; when set, Add/MarkCommitted/Drop
	// serialize on qos.mu (then shard locks) so lane accounting stays
	// exact, Peek schedules lanes by weight, and capacity pressure
	// evicts the heaviest identity instead of rejecting the newcomer.
	qos *qosState

	size atomic.Int64  // admitted and unreaped, pool-wide (exact)
	seq  atomic.Uint64 // global admission ticket

	laneDepth [laneCount]atomic.Int64

	admitted     atomic.Uint64
	rejectedFull atomic.Uint64
	rejectedDup  atomic.Uint64
	dropped      atomic.Uint64
	committedCnt atomic.Uint64
	evictedShed  atomic.Uint64
}

// NewMempoolQoS creates a pool with priority lanes enabled: Peek
// serves lanes by weight instead of pure pool-wide FIFO, identities
// over their fair share are demoted to the bulk lane, and at capacity
// the heaviest identity's newest transaction is evicted to admit
// higher-priority traffic.
func NewMempoolQoS(capacity, shards int, qos QoSConfig) *Mempool {
	m := NewMempoolShards(capacity, shards)
	qos.fill()
	m.qos = &qosState{cfg: qos, ident: make(map[gcrypto.Address]*identLoad)}
	return m
}

// NewMempoolShards creates a pool with explicit capacity and shard
// count (0 = defaults). The shard count is clamped to [1, 256] and
// rounded up to a power of two.
func NewMempoolShards(capacity, shards int) *Mempool {
	if capacity <= 0 {
		capacity = DefaultMempoolCap
	}
	if shards <= 0 {
		shards = DefaultMempoolShards
	}
	if shards > 256 {
		shards = 256
	}
	n := 1
	for n < shards {
		n *= 2
	}
	genLimit := 4 * capacity / n
	if genLimit < 1 {
		genLimit = 1
	}
	m := &Mempool{
		shards: make([]poolShard, n),
		mask:   uint32(n - 1),
		cap:    capacity,
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.pending = make(map[gcrypto.Hash]*types.Transaction)
		s.committed = make(map[gcrypto.Hash]bool)
		s.oldGen = make(map[gcrypto.Hash]bool)
		s.genLimit = genLimit
	}
	return m
}

func (m *Mempool) shard(id gcrypto.Hash) *poolShard {
	return &m.shards[uint32(id[0])&m.mask]
}

// Add inserts a transaction unless it is already pending, was
// committed recently, or the pool is at capacity. QoS pools at
// capacity first try to evict the heaviest identity's newest
// transaction from the lowest-priority lane at or below the incoming
// lane.
func (m *Mempool) Add(tx *types.Transaction) error {
	if m.qos != nil {
		return m.addQoS(tx)
	}
	id := tx.ID()
	s := m.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[id] != nil || s.committed[id] || s.oldGen[id] {
		m.rejectedDup.Add(1)
		return ErrTxDuplicate
	}
	// Reserve a place by compare-and-swap, so that the counter Len reads
	// never passes the cap, even for an instant, across shards.
	for n := m.size.Load(); ; n = m.size.Load() {
		if n >= int64(m.cap) {
			m.rejectedFull.Add(1)
			return ErrPoolFull
		}
		if m.size.CompareAndSwap(n, n+1) {
			break
		}
	}
	s.pending[id] = tx
	s.queue = append(s.queue, poolEntry{id: id, seq: m.seq.Add(1), tx: tx})
	m.admitted.Add(1)
	return nil
}

// addQoS is the lane-aware admission path. All mutating QoS operations
// hold qos.mu for their duration, so the dup-check / evict / insert
// sequence is atomic with respect to other mutators even though the
// shard lock is released in between; Peek stays lock-free with respect
// to qos.mu.
func (m *Mempool) addQoS(tx *types.Transaction) error {
	id := tx.ID()
	q := m.qos
	q.mu.Lock()
	defer q.mu.Unlock()

	s := m.shard(id)
	s.mu.Lock()
	dup := s.pending[id] != nil || s.committed[id] || s.oldGen[id]
	s.mu.Unlock()
	if dup {
		m.rejectedDup.Add(1)
		return ErrTxDuplicate
	}

	sender := tx.Sender
	lane := m.classifyLocked(tx, sender)
	if int(m.size.Load()) >= m.cap {
		if !m.evictForLocked(lane, sender) {
			m.rejectedFull.Add(1)
			return ErrPoolFull
		}
	}
	m.size.Add(1)
	s.mu.Lock()
	s.pending[id] = tx
	s.queue = append(s.queue, poolEntry{id: id, seq: m.seq.Add(1), tx: tx, lane: lane, sender: sender})
	s.mu.Unlock()

	il := q.ident[sender]
	if il == nil {
		il = &identLoad{}
		q.ident[sender] = il
	}
	il.pending[lane]++
	il.refs[lane] = append(il.refs[lane], id)
	m.laneDepth[lane].Add(1)
	m.admitted.Add(1)
	return nil
}

// classifyLocked maps tx to its lane: control types always ride the
// control lane; data traffic is demoted to bulk once the sender is
// over its fair share. qos.mu held.
func (m *Mempool) classifyLocked(tx *types.Transaction, sender gcrypto.Address) Lane {
	lane := laneForType(tx.Type)
	if lane != LaneNormal {
		return lane
	}
	if il := m.qos.ident[sender]; il != nil &&
		il.pending[LaneNormal]+il.pending[LaneBulk] >= m.qos.cfg.FairShare {
		return LaneBulk
	}
	return LaneNormal
}

// ClassifyLane reports which lane tx would be admitted into right now
// (admission control uses it to shed bulk traffic before it is even
// pooled). Plain FIFO pools classify by type only.
func (m *Mempool) ClassifyLane(tx *types.Transaction) Lane {
	if m.qos == nil {
		return laneForType(tx.Type)
	}
	m.qos.mu.Lock()
	defer m.qos.mu.Unlock()
	return m.classifyLocked(tx, tx.Sender)
}

// evictForLocked frees one slot for an incoming transaction in `lane`
// from `sender`: scanning lanes from bulk upward but never above the
// incoming lane, it picks the identity with the most pending entries
// in that lane (ties broken by address order, so eviction is
// deterministic) and evicts its newest transaction. Returns false —
// reject the newcomer instead — when no eligible victim exists or the
// newcomer's own identity is the heaviest. qos.mu held, no shard lock
// held.
func (m *Mempool) evictForLocked(lane Lane, sender gcrypto.Address) bool {
	for vl := LaneBulk; vl >= lane; vl-- {
		if m.laneDepth[vl].Load() == 0 {
			if vl == 0 {
				break
			}
			continue
		}
		var victim gcrypto.Address
		var vload *identLoad
		for addr, il := range m.qos.ident {
			if il.pending[vl] == 0 {
				continue
			}
			if vload == nil || il.pending[vl] > vload.pending[vl] ||
				(il.pending[vl] == vload.pending[vl] && addr.Less(victim)) {
				victim, vload = addr, il
			}
		}
		if vload == nil {
			if vl == 0 {
				break
			}
			continue
		}
		if victim == sender {
			// Evicting the newcomer's own older traffic to admit its
			// newer traffic just churns the pool: reject instead.
			return false
		}
		refs := vload.refs[vl]
		for len(refs) > 0 {
			id := refs[len(refs)-1]
			refs = refs[:len(refs)-1]
			vs := m.shard(id)
			vs.mu.Lock()
			live := vs.pending[id] != nil
			if live {
				delete(vs.pending, id)
				vs.removeQueued(id)
			}
			vs.mu.Unlock()
			if live {
				vload.refs[vl] = refs
				vload.pending[vl]--
				if vload.total() == 0 {
					delete(m.qos.ident, victim)
				}
				m.laneDepth[vl].Add(-1)
				m.size.Add(-1)
				m.evictedShed.Add(1)
				return true
			}
		}
		// Only stale refs remained; bookkeeping says otherwise, which
		// cannot happen while the accounting invariant holds — bail to
		// the reject path defensively.
		vload.refs[vl] = refs
		return false
	}
	return false
}

// qosForgetLocked undoes lane accounting for a removed entry. qos.mu
// held, no shard lock held (compaction takes shard locks one at a
// time).
func (m *Mempool) qosForgetLocked(e poolEntry) {
	m.laneDepth[e.lane].Add(-1)
	il := m.qos.ident[e.sender]
	if il == nil {
		return
	}
	if il.pending[e.lane] > 0 {
		il.pending[e.lane]--
	}
	if il.total() == 0 {
		delete(m.qos.ident, e.sender)
		return
	}
	// Compact the ref list once stale entries dominate, so a long-lived
	// busy identity cannot grow it without bound.
	if len(il.refs[e.lane]) > 2*il.pending[e.lane]+32 {
		kept := il.refs[e.lane][:0]
		for _, id := range il.refs[e.lane] {
			s := m.shard(id)
			s.mu.Lock()
			live := s.pending[id] != nil
			s.mu.Unlock()
			if live {
				kept = append(kept, id)
			}
		}
		il.refs[e.lane] = kept
	}
}

// Peek returns up to n transactions without removing them. Plain
// pools return pool-wide FIFO (admission) order: a k-way merge of the
// per-shard queues by admission ticket. QoS pools serve lanes by
// weight: each scheduling cycle takes up to LaneWeights[l] of the
// oldest transactions from lane l, control first, so overload in one
// lane cannot starve the others.
func (m *Mempool) Peek(n int) []types.Transaction {
	if n <= 0 {
		return nil
	}
	if m.qos != nil {
		return m.peekLanes(n)
	}
	type cursor struct {
		entries []poolEntry
		i       int
	}
	cursors := make([]cursor, 0, len(m.shards))
	for si := range m.shards {
		s := &m.shards[si]
		s.mu.Lock()
		k := len(s.queue)
		if k > n {
			k = n // a shard can contribute at most n of the first n
		}
		if k > 0 {
			snap := make([]poolEntry, k)
			copy(snap, s.queue[:k])
			cursors = append(cursors, cursor{entries: snap})
		}
		s.mu.Unlock()
	}
	out := make([]types.Transaction, 0, n)
	for len(out) < n {
		best := -1
		for ci := range cursors {
			c := &cursors[ci]
			if c.i >= len(c.entries) {
				continue
			}
			if best < 0 || c.entries[c.i].seq < cursors[best].entries[cursors[best].i].seq {
				best = ci
			}
		}
		if best < 0 {
			break
		}
		out = append(out, *cursors[best].entries[cursors[best].i].tx)
		cursors[best].i++
	}
	return out
}

// peekLanes is the QoS scheduler: per-lane snapshots merged by
// admission ticket (age order inside each lane), then a weighted
// round-robin across lanes in priority order.
func (m *Mempool) peekLanes(n int) []types.Transaction {
	type cursor struct {
		entries []poolEntry
		i       int
	}
	var lanes [laneCount][]cursor
	for si := range m.shards {
		s := &m.shards[si]
		s.mu.Lock()
		var snaps [laneCount][]poolEntry
		for _, e := range s.queue {
			if len(snaps[e.lane]) < n {
				snaps[e.lane] = append(snaps[e.lane], e)
			}
		}
		s.mu.Unlock()
		for l := range snaps {
			if len(snaps[l]) > 0 {
				lanes[l] = append(lanes[l], cursor{entries: snaps[l]})
			}
		}
	}
	// Oldest-first stream per lane via k-way merge of shard snapshots.
	streams := make([][]poolEntry, laneCount)
	for l := range lanes {
		cursors := lanes[l]
		for len(streams[l]) < n {
			best := -1
			for ci := range cursors {
				c := &cursors[ci]
				if c.i >= len(c.entries) {
					continue
				}
				if best < 0 || c.entries[c.i].seq < cursors[best].entries[cursors[best].i].seq {
					best = ci
				}
			}
			if best < 0 {
				break
			}
			streams[l] = append(streams[l], cursors[best].entries[cursors[best].i])
			cursors[best].i++
		}
	}
	w := m.qos.cfg.LaneWeights
	out := make([]types.Transaction, 0, n)
	idx := [laneCount]int{}
	for len(out) < n {
		took := false
		for l := 0; l < laneCount && len(out) < n; l++ {
			quota := w[l]
			if quota <= 0 && idx[l] < len(streams[l]) {
				quota = 1 // a zero weight still drains when others are empty
				empty := true
				for o := 0; o < laneCount; o++ {
					if o != l && idx[o] < len(streams[o]) {
						empty = false
						break
					}
				}
				if !empty {
					continue
				}
			}
			for k := 0; k < quota && idx[l] < len(streams[l]) && len(out) < n; k++ {
				out = append(out, *streams[l][idx[l]].tx)
				idx[l]++
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
	if m.qos != nil {
		m.qos.mu.Lock()
		defer m.qos.mu.Unlock()
	}
	removed := 0
	for i := range txs {
		id := txs[i].ID()
		s := m.shard(id)
		s.mu.Lock()
		e, was := poolEntry{}, false
		if s.pending[id] != nil {
			delete(s.pending, id)
			e, was = s.removeQueued(id)
			m.size.Add(-1)
			removed++
		}
		s.committed[id] = true
		// Rotate committed generations to bound memory.
		if len(s.committed) > s.genLimit {
			s.oldGen = s.committed
			s.committed = make(map[gcrypto.Hash]bool)
		}
		s.mu.Unlock()
		if was && m.qos != nil {
			m.qosForgetLocked(e)
		}
	}
	m.committedCnt.Add(uint64(removed))
	return removed
}

// Drop removes a pending transaction without remembering it as
// committed (stale era-switch proposals are discarded this way).
func (m *Mempool) Drop(id gcrypto.Hash) {
	if m.qos != nil {
		m.qos.mu.Lock()
		defer m.qos.mu.Unlock()
	}
	s := m.shard(id)
	s.mu.Lock()
	if s.pending[id] == nil {
		s.mu.Unlock()
		return
	}
	delete(s.pending, id)
	e, was := s.removeQueued(id)
	m.size.Add(-1)
	m.dropped.Add(1)
	s.mu.Unlock()
	if was && m.qos != nil {
		m.qosForgetLocked(e)
	}
}

// Len returns the number of pending transactions.
func (m *Mempool) Len() int { return int(m.size.Load()) }

// Cap returns the configured capacity bound.
func (m *Mempool) Cap() int { return m.cap }

// PendingOf returns how many data-lane transactions the identity has
// pending (0 for plain FIFO pools, which do no identity accounting).
func (m *Mempool) PendingOf(sender gcrypto.Address) int {
	if m.qos == nil {
		return 0
	}
	m.qos.mu.Lock()
	defer m.qos.mu.Unlock()
	il := m.qos.ident[sender]
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
	s := m.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending[id]
}

// WasCommitted reports whether the pool remembers the tx as committed.
func (m *Mempool) WasCommitted(id gcrypto.Hash) bool {
	s := m.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.committed[id] || s.oldGen[id]
}

// Stats snapshots the pool's backpressure counters.
func (m *Mempool) Stats() PoolStats {
	st := PoolStats{
		Pending:      m.Len(),
		Shards:       len(m.shards),
		Admitted:     m.admitted.Load(),
		RejectedFull: m.rejectedFull.Load(),
		RejectedDup:  m.rejectedDup.Load(),
		Dropped:      m.dropped.Load(),
		Committed:    m.committedCnt.Load(),
		EvictedShed:  m.evictedShed.Load(),
	}
	for l := range st.Lanes {
		st.Lanes[l] = int(m.laneDepth[l].Load())
	}
	st.ShardDepths = make([]int, len(m.shards))
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		st.ShardDepths[i] = len(s.pending)
		s.mu.Unlock()
	}
	return st
}
