package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// Admission defaults.
const (
	// DefaultAdmissionBurst multiplies Rate to size the token bucket
	// when Burst is unset.
	DefaultAdmissionBurst = 2.0
	// DefaultMaxIdentities bounds the bucket table.
	DefaultMaxIdentities = 4096
	// DefaultRetryAfterMin floors the retry-after hint sent to clients.
	DefaultRetryAfterMin = 200 * time.Millisecond

	// admissionRecalcInterval rate-limits shed-level recomputation on
	// the Admit fast path.
	admissionRecalcInterval = 100 * time.Millisecond
	// hysteresisFrac: the shed level steps down only when pool
	// occupancy is comfortably below the current level's threshold,
	// preventing oscillation right at the boundary.
	hysteresisFrac = 0.8
)

// RejectError is returned by Admission.Admit (and surfaced through
// Node.Submit) when a transaction is refused before reaching the
// mempool. It carries what the signed TxRejected reply needs.
type RejectError struct {
	Reason     types.RejectReason
	RetryAfter time.Duration
}

// Error implements error.
func (e *RejectError) Error() string {
	return fmt.Sprintf("runtime: tx rejected (%s, retry after %s)", e.Reason, e.RetryAfter)
}

// AdmissionConfig tunes the ingress admission controller.
type AdmissionConfig struct {
	// Rate is the sustained per-identity admission rate in tx/s.
	// <= 0 means no per-identity limiting (shed levels still apply).
	Rate float64
	// Burst is the token-bucket depth (instantaneous burst allowance
	// in transactions). 0 selects max(DefaultAdmissionBurst*Rate, 8).
	Burst float64
	// MaxIdentities bounds the bucket table (0 = DefaultMaxIdentities).
	// At the bound the stalest bucket is recycled deterministically, so
	// a Sybil flood of fresh identities cannot grow memory without
	// bound — each fresh identity instead costs an attacker one bucket
	// slot and gets at most one burst through.
	MaxIdentities int
	// ShedThresholds are pool-occupancy fractions at which the shed
	// level rises to 1, 2 and 3. Zeros select 0.50 / 0.75 / 0.90.
	ShedThresholds [3]float64
	// LatencyTarget escalates the shed level by one while the commit
	// latency EWMA exceeds it (0 = latency input disabled).
	LatencyTarget time.Duration
	// Exempt identities are always admitted without charging a bucket
	// (a node's own control traffic: location reports, evidence).
	Exempt []gcrypto.Address
}

func (c *AdmissionConfig) fill() {
	if c.Burst <= 0 {
		c.Burst = DefaultAdmissionBurst * c.Rate
		if c.Burst < 8 {
			c.Burst = 8
		}
	}
	if c.MaxIdentities <= 0 {
		c.MaxIdentities = DefaultMaxIdentities
	}
	if c.ShedThresholds == ([3]float64{}) {
		c.ShedThresholds = [3]float64{0.50, 0.75, 0.90}
	}
}

// tokenBucket is one identity's admission budget. Refill is computed
// lazily from the elapsed consensus.Time, so the same code is exact
// under the deterministic simulator and the real-time runner.
type tokenBucket struct {
	tokens float64
	last   consensus.Time
}

// Admission is a per-identity token-bucket rate limiter combined with a
// graceful-degradation controller. The controller watches mempool
// occupancy, consensus in-flight saturation and the commit latency EWMA
// and raises a shed level from 0 (normal) to 3 (control traffic only):
//
//	level 1 — shed the bulk lane (identities over their fair share)
//	level 2 — additionally halve every identity's effective rate
//	level 3 — admit only control-lane traffic
//
// Admit is safe for concurrent use. Observe is expected from a single
// goroutine (the node's commit path).
type Admission struct {
	cfg AdmissionConfig

	exempt map[gcrypto.Address]bool // fixed at construction

	mu         sync.Mutex
	buckets    map[gcrypto.Address]*tokenBucket
	lastRecalc consensus.Time

	level  atomic.Int32
	ewmaNs atomic.Int64

	pool     *Mempool
	inflight func() (used, depth int)

	accepted     atomic.Uint64
	rejectedRate atomic.Uint64
	shed         atomic.Uint64
}

// NewAdmission builds an admission controller. Bind a pool (and
// optionally an in-flight probe) before use so the shed controller has
// load signals; without a pool only rate limiting is active.
func NewAdmission(cfg AdmissionConfig) *Admission {
	cfg.fill()
	a := &Admission{
		cfg:     cfg,
		buckets: make(map[gcrypto.Address]*tokenBucket),
		exempt:  make(map[gcrypto.Address]bool, len(cfg.Exempt)),
	}
	for _, addr := range cfg.Exempt {
		a.exempt[addr] = true
	}
	return a
}

// BindPool points the shed controller at the node's mempool; lane
// classification then follows the pool's per-identity fair-share state.
func (a *Admission) BindPool(p *Mempool) { a.pool = p }

// BindInFlight installs the consensus pipeline occupancy probe.
func (a *Admission) BindInFlight(fn func() (used, depth int)) { a.inflight = fn }

// Level returns the current shed level (0..3).
func (a *Admission) Level() int {
	if a == nil {
		return 0
	}
	return int(a.level.Load())
}

// lane classifies tx for shedding purposes.
func (a *Admission) lane(tx *types.Transaction) Lane {
	if a.pool != nil {
		return a.pool.ClassifyLane(tx)
	}
	return laneForType(tx.Type)
}

// Admit charges the sender's bucket and applies the current shed level;
// a nil error admits the transaction. Rejections are *RejectError with
// a reason and a retry-after hint. A nil *Admission admits everything.
func (a *Admission) Admit(now consensus.Time, tx *types.Transaction) error {
	if a == nil {
		return nil
	}
	a.maybeRecalc(now)

	sender := tx.Sender
	if a.exempt[sender] {
		a.accepted.Add(1)
		return nil
	}

	lane := a.lane(tx)
	lvl := a.level.Load()
	if (lvl >= 1 && lane == LaneBulk) || (lvl >= 3 && lane != LaneControl) {
		a.shed.Add(1)
		// The retry-after hint doubles with each shed level.
		return &RejectError{Reason: types.RejectShed, RetryAfter: DefaultRetryAfterMin << uint(lvl)}
	}

	if a.cfg.Rate <= 0 {
		a.accepted.Add(1)
		return nil
	}
	cost := 1.0
	if lvl >= 2 {
		cost = 2 // halves the effective per-identity rate under heavy load
	}
	a.mu.Lock()
	b := a.bucket(sender, now)
	if dt := now - b.last; dt > 0 {
		b.tokens += a.cfg.Rate * dt.Seconds()
		if b.tokens > a.cfg.Burst {
			b.tokens = a.cfg.Burst
		}
	}
	if now > b.last {
		b.last = now
	}
	if b.tokens < cost {
		need := cost - b.tokens
		a.mu.Unlock()
		ra := time.Duration(need / a.cfg.Rate * float64(time.Second))
		if ra < DefaultRetryAfterMin {
			ra = DefaultRetryAfterMin
		}
		a.rejectedRate.Add(1)
		return &RejectError{Reason: types.RejectRateLimit, RetryAfter: ra}
	}
	b.tokens -= cost
	a.mu.Unlock()
	a.accepted.Add(1)
	return nil
}

// bucket returns (creating if needed) the sender's bucket; a.mu held.
func (a *Admission) bucket(sender gcrypto.Address, now consensus.Time) *tokenBucket {
	if b := a.buckets[sender]; b != nil {
		return b
	}
	if len(a.buckets) >= a.cfg.MaxIdentities {
		a.recycleStalest()
	}
	b := &tokenBucket{tokens: a.cfg.Burst, last: now}
	a.buckets[sender] = b
	return b
}

// recycleStalest deterministically evicts the least-recently-charged
// bucket (ties broken by address order); a.mu held.
func (a *Admission) recycleStalest() {
	var victim gcrypto.Address
	var stalest consensus.Time
	first := true
	for addr, b := range a.buckets {
		if first || b.last < stalest || (b.last == stalest && addr.Less(victim)) {
			victim, stalest, first = addr, b.last, false
		}
	}
	if !first {
		delete(a.buckets, victim)
	}
}

// maybeRecalc refreshes the shed level at most once per interval.
func (a *Admission) maybeRecalc(now consensus.Time) {
	a.mu.Lock()
	if now >= a.lastRecalc && now-a.lastRecalc < admissionRecalcInterval {
		a.mu.Unlock()
		return
	}
	a.lastRecalc = now
	a.mu.Unlock()
	a.Recalc()
}

// Observe feeds one commit's latency into the EWMA (α = 1/8) and
// refreshes the shed level. Called from the node's commit path.
func (a *Admission) Observe(now consensus.Time, commitLatency time.Duration) {
	if a == nil || commitLatency < 0 {
		return
	}
	for {
		old := a.ewmaNs.Load()
		next := int64(commitLatency)
		if old != 0 {
			next = old - old/8 + int64(commitLatency)/8
		}
		if a.ewmaNs.CompareAndSwap(old, next) {
			break
		}
	}
	a.mu.Lock()
	a.lastRecalc = now
	a.mu.Unlock()
	a.Recalc()
}

// Recalc recomputes the shed level from the bound load signals and
// returns it. Levels rise immediately but step down one at a time, and
// only once occupancy is below hysteresisFrac of the current level's
// threshold.
func (a *Admission) Recalc() int {
	frac := 0.0
	if a.pool != nil && a.pool.Cap() > 0 {
		frac = float64(a.pool.Len()) / float64(a.pool.Cap())
	}
	target := int32(0)
	for i, th := range a.cfg.ShedThresholds {
		if th > 0 && frac >= th {
			target = int32(i + 1)
		}
	}
	if a.inflight != nil {
		if used, depth := a.inflight(); depth > 0 && used >= depth && target < 1 {
			target = 1
		}
	}
	if a.cfg.LatencyTarget > 0 && time.Duration(a.ewmaNs.Load()) > a.cfg.LatencyTarget && target < 3 {
		target++
	}
	cur := a.level.Load()
	switch {
	case target > cur:
		a.level.Store(target)
	case target < cur:
		if frac < a.cfg.ShedThresholds[cur-1]*hysteresisFrac {
			a.level.Store(cur - 1)
		}
	}
	return int(a.level.Load())
}

// AdmissionStats snapshots the controller's counters.
type AdmissionStats struct {
	Accepted     uint64 // admitted submissions
	RejectedRate uint64 // refused by per-identity token buckets
	Shed         uint64 // refused by the load-shed controller
	Level        int    // current shed level (0..3)
	Identities   int    // tracked bucket count
	LatencyEWMA  time.Duration
}

// Stats snapshots the admission counters; zero-valued for nil.
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	a.mu.Lock()
	idents := len(a.buckets)
	a.mu.Unlock()
	return AdmissionStats{
		Accepted:     a.accepted.Load(),
		RejectedRate: a.rejectedRate.Load(),
		Shed:         a.shed.Load(),
		Level:        int(a.level.Load()),
		Identities:   idents,
		LatencyEWMA:  time.Duration(a.ewmaNs.Load()),
	}
}
