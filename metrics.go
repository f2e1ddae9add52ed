package gpbft

import (
	"sort"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// DefaultMaxPending caps submitted-but-uncommitted latency clocks; a
// sustained overload that drops transactions must not grow the
// recorder without bound.
const DefaultMaxPending = 1 << 16

// Metrics records per-transaction consensus latency, measured exactly
// as the paper defines it (Section V-B): "the latency from the time
// when a transaction is sent to an endorser to the time when the
// transaction is written to the ledger after consensus". The first
// node to commit a transaction stops its clock.
//
// Pending clocks are bounded: when more than the configured cap of
// submitted transactions have not committed, the oldest clocks are
// evicted (their transactions were dropped under load; if one later
// commits it simply goes unmeasured).
type Metrics struct {
	submits    map[gcrypto.Hash]consensus.Time // pending clocks only
	order      []gcrypto.Hash                  // submission order of clocks
	committed  map[gcrypto.Hash]consensus.Time
	latencies  []time.Duration
	blocks     int
	eraCount   int
	submitted  int
	evicted    int
	evidence   int
	maxPending int
	lastCommit consensus.Time
}

// NewMetrics returns an empty recorder with the default pending cap.
func NewMetrics() *Metrics {
	return &Metrics{
		submits:    make(map[gcrypto.Hash]consensus.Time),
		committed:  make(map[gcrypto.Hash]consensus.Time),
		maxPending: DefaultMaxPending,
	}
}

// SetMaxPending adjusts the cap on pending latency clocks (values < 1
// are ignored) and prunes immediately if already above it.
func (m *Metrics) SetMaxPending(n int) {
	if n < 1 {
		return
	}
	m.maxPending = n
	m.prune()
}

// RecordSubmit starts a transaction's latency clock.
func (m *Metrics) RecordSubmit(id gcrypto.Hash, now consensus.Time) {
	if _, dup := m.submits[id]; dup {
		return
	}
	if _, done := m.committed[id]; done {
		return
	}
	m.submits[id] = now
	m.order = append(m.order, id)
	m.submitted++
	m.prune()
}

// prune evicts the oldest pending clocks above the cap. The order list
// may hold ids whose clock already stopped; those are skipped (their
// map entry is gone), which also keeps the list itself bounded.
func (m *Metrics) prune() {
	for len(m.submits) > m.maxPending && len(m.order) > 0 {
		id := m.order[0]
		m.order = m.order[1:]
		if _, pending := m.submits[id]; pending {
			delete(m.submits, id)
			m.evicted++
		}
	}
	// Compact the order list when committed entries dominate it, so it
	// cannot grow unboundedly ahead of the pending map.
	if len(m.order) > 64 && len(m.order) > 2*len(m.submits) {
		kept := m.order[:0]
		for _, id := range m.order {
			if _, pending := m.submits[id]; pending {
				kept = append(kept, id)
			}
		}
		m.order = kept
	}
}

// ObserveCommit stops the clock for every transaction in a block, on
// its first commit observation anywhere in the cluster.
func (m *Metrics) ObserveCommit(now consensus.Time, b *types.Block) {
	m.blocks++
	for i := range b.Txs {
		if b.Txs[i].Type == types.TxEvidence {
			m.evidence++
		}
		id := b.Txs[i].ID()
		if _, done := m.committed[id]; done {
			continue
		}
		sub, ok := m.submits[id]
		if !ok {
			continue // internally generated (e.g. evidence txs) or evicted
		}
		delete(m.submits, id)
		m.committed[id] = now
		m.latencies = append(m.latencies, time.Duration(now-sub))
		m.lastCommit = now
	}
}

// LastCommitAt returns the virtual time at which the most recent
// tracked transaction committed (0 when none have). Load generators
// use it to bound the measurement window when background machinery —
// the geo-shard anchor pump — keeps the event loop ticking long after
// the workload has drained.
func (m *Metrics) LastCommitAt() consensus.Time { return m.lastCommit }

// ObserveEraSwitch counts completed era switches.
func (m *Metrics) ObserveEraSwitch() { m.eraCount++ }

// Latencies returns a copy of all recorded commit latencies.
func (m *Metrics) Latencies() []time.Duration {
	out := make([]time.Duration, len(m.latencies))
	copy(out, m.latencies)
	return out
}

// SubmittedCount returns how many transactions had their clock started.
func (m *Metrics) SubmittedCount() int { return m.submitted }

// CommittedCount returns how many submitted transactions committed.
func (m *Metrics) CommittedCount() int { return len(m.committed) }

// PendingCount returns submitted-but-uncommitted transactions still
// tracked (evicted clocks are no longer pending).
func (m *Metrics) PendingCount() int { return len(m.submits) }

// EvictedCount returns pending clocks discarded because the cap was
// exceeded (transactions dropped under load that never committed).
func (m *Metrics) EvictedCount() int { return m.evicted }

// BlocksObserved returns the number of first-commit block observations.
func (m *Metrics) BlocksObserved() int { return m.blocks }

// EraSwitches returns observed era-switch completions.
func (m *Metrics) EraSwitches() int { return m.eraCount }

// EvidenceTxCount returns how many evidence transactions were observed
// in first-commit blocks (duplicate accusations included: each carries
// its own transaction).
func (m *Metrics) EvidenceTxCount() int { return m.evidence }

// MeanLatency returns the mean commit latency (0 when empty).
func (m *Metrics) MeanLatency() time.Duration {
	if len(m.latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range m.latencies {
		sum += l
	}
	return sum / time.Duration(len(m.latencies))
}

// MaxLatency returns the worst commit latency.
func (m *Metrics) MaxLatency() time.Duration {
	var max time.Duration
	for _, l := range m.latencies {
		if l > max {
			max = l
		}
	}
	return max
}

// Quantile returns the q-quantile (0..1) of latencies, 0 when empty.
func (m *Metrics) Quantile(q float64) time.Duration {
	if len(m.latencies) == 0 {
		return 0
	}
	ls := m.Latencies()
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	idx := int(q * float64(len(ls)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ls) {
		idx = len(ls) - 1
	}
	return ls[idx]
}
