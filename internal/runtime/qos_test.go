package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/types"
)

func mkReport(i int, nonce uint64) *types.Transaction {
	tx := &types.Transaction{
		Type:  types.TxLocationReport,
		Nonce: nonce,
		Geo: types.GeoInfo{
			Location:  geo.Point{Lng: 114.17, Lat: 22.30},
			Timestamp: epoch.Add(time.Duration(nonce) * time.Second),
		},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(i))
	return tx
}

// Control traffic must be served before data traffic regardless of
// admission order, and lane depths must be visible in PoolStats.
func TestQoSPeekServesControlFirst(t *testing.T) {
	p := NewMempool(1000, &QoSConfig{})
	for i := 0; i < 8; i++ {
		if err := p.Add(mkTx(1, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	rep := mkReport(2, 1)
	if err := p.Add(rep); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Lanes[LaneControl] != 1 || st.Lanes[LaneNormal] != 8 {
		t.Fatalf("lane depths = %v", st.Lanes)
	}
	got := p.Peek(4)
	if len(got) != 4 {
		t.Fatalf("Peek returned %d", len(got))
	}
	if got[0].ID() != rep.ID() {
		t.Fatalf("control-lane tx not served first")
	}
}

// An identity over its fair share is demoted to the bulk lane, and the
// bulk lane gets only its weighted share of a Peek.
func TestQoSFairShareDemotesToBulk(t *testing.T) {
	p := NewMempool(1000, &QoSConfig{FairShare: 4, LaneWeights: [3]int{8, 4, 1}})
	// Identity 1 floods far past its fair share; identity 2 stays within.
	for i := 0; i < 20; i++ {
		if err := p.Add(mkTx(1, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := p.Add(mkTx(2, uint64(500+i))); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Lanes[LaneBulk] != 16 {
		t.Fatalf("bulk depth = %d, want 16 (20 - fair share 4)", st.Lanes[LaneBulk])
	}
	if st.Lanes[LaneNormal] != 7 {
		t.Fatalf("normal depth = %d, want 7", st.Lanes[LaneNormal])
	}
	spammer := gcrypto.DeterministicKeyPair(1).Address()
	if got := p.PendingOf(spammer); got != 20 {
		t.Fatalf("PendingOf(spammer) = %d, want 20", got)
	}
	// One scheduling cycle of 5: weight 4 from normal, 1 from bulk.
	got := p.Peek(5)
	bulk := 0
	for i := range got {
		if got[i].Sender == spammer && got[i].Nonce >= 104 {
			bulk++
		}
	}
	if bulk != 1 {
		t.Fatalf("bulk lane got %d of 5 slots, want exactly its weight 1", bulk)
	}
}

// At capacity the pool evicts the heaviest identity's newest bulk
// transaction instead of rejecting an honest newcomer, and counts it
// under EvictedShed. The flooder itself cannot evict to readmit.
func TestQoSEvictsHeaviestIdentity(t *testing.T) {
	p := NewMempool(10, &QoSConfig{FairShare: 2})
	for i := 0; i < 10; i++ {
		if err := p.Add(mkTx(1, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Flooder at cap: its own next tx must be rejected, not evict.
	if err := p.Add(mkTx(1, 999)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("flooder self-eviction: got %v, want ErrPoolFull", err)
	}
	// Honest newcomer evicts the flooder's newest tx.
	honest := mkTx(2, 1)
	if err := p.Add(honest); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.EvictedShed != 1 {
		t.Fatalf("EvictedShed = %d, want 1", st.EvictedShed)
	}
	if st.Pending != 10 {
		t.Fatalf("Pending = %d, want 10 (still at cap)", st.Pending)
	}
	if !p.Contains(honest.ID()) {
		t.Fatal("honest tx not admitted")
	}
	if p.Contains(mkTx(1, 109).ID()) {
		t.Fatal("flooder's newest tx should have been evicted")
	}
	if !p.Contains(mkTx(1, 100).ID()) {
		t.Fatal("flooder's oldest tx should survive (newest-first eviction)")
	}
}

// Satellite: PoolStats backpressure counters must stay exact under
// concurrent submit / evict / commit traffic (run with -race).
func TestQoSStatsExactUnderConcurrency(t *testing.T) {
	p := NewMempool(64, &QoSConfig{FairShare: 4})
	var wg sync.WaitGroup
	const senders, per = 8, 200
	committed := make([][]types.Transaction, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx := mkTx(s+1, uint64(i))
				if err := p.Add(tx); err == nil && i%3 == 0 {
					committed[s] = append(committed[s], *tx)
				}
			}
		}(s)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			p.Peek(16)
			p.Stats()
		}
	}()
	wg.Wait()
	<-done
	for s := range committed {
		p.MarkCommitted(committed[s])
	}
	st := p.Stats()
	live := st.Admitted - st.Committed - st.Dropped - st.EvictedShed
	if uint64(st.Pending) != live {
		t.Fatalf("counter drift: Pending=%d but Admitted-Committed-Dropped-EvictedShed=%d (%+v)",
			st.Pending, live, st)
	}
	laneSum := 0
	for _, d := range st.Lanes {
		laneSum += d
	}
	if laneSum != st.Pending {
		t.Fatalf("lane depths sum %d != Pending %d", laneSum, st.Pending)
	}
}

// Token buckets must admit a burst, then reject with a retry-after
// hint, then refill with virtual time — deterministically.
func TestAdmissionRateLimit(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Rate: 10, Burst: 2})
	now := consensus.Time(0)
	for i := 0; i < 2; i++ {
		if err := a.Admit(now, mkTx(1, uint64(i))); err != nil {
			t.Fatalf("burst tx %d rejected: %v", i, err)
		}
	}
	err := a.Admit(now, mkTx(1, 99))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != types.RejectRateLimit {
		t.Fatalf("expected rate-limit rejection, got %v", err)
	}
	if rej.RetryAfter < DefaultRetryAfterMin {
		t.Fatalf("retry-after %v below floor", rej.RetryAfter)
	}
	// 100ms at 10 tx/s refills one token.
	now += 100 * time.Millisecond
	if err := a.Admit(now, mkTx(1, 100)); err != nil {
		t.Fatalf("refilled token rejected: %v", err)
	}
	// A different identity has its own bucket.
	if err := a.Admit(now, mkTx(2, 0)); err != nil {
		t.Fatalf("second identity rejected: %v", err)
	}
	st := a.Stats()
	if st.Accepted != 4 || st.RejectedRate != 1 || st.Identities != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// The shed controller must climb levels as the pool fills, shed bulk
// traffic at level 1, admit only control traffic at level 3, and step
// back down with hysteresis as the pool drains.
func TestAdmissionShedLevels(t *testing.T) {
	pool := NewMempool(100, &QoSConfig{FairShare: 1000})
	a := NewAdmission(AdmissionConfig{Rate: 1e9, ShedThresholds: [3]float64{0.5, 0.75, 0.9}})
	a.BindPool(pool)

	fill := func(n int, base uint64) {
		for i := 0; i < n; i++ {
			if err := pool.Add(mkTx(3, base+uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(49, 0)
	if lvl := a.Recalc(); lvl != 0 {
		t.Fatalf("level at 49%% = %d", lvl)
	}
	fill(26, 100) // 75%
	if lvl := a.Recalc(); lvl != 2 {
		t.Fatalf("level at 75%% = %d", lvl)
	}
	fill(16, 200) // 91%
	if lvl := a.Recalc(); lvl != 3 {
		t.Fatalf("level at 91%% = %d", lvl)
	}
	// Level 3: data traffic shed, control traffic still admitted.
	err := a.Admit(0, mkTx(1, 999))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != types.RejectShed {
		t.Fatalf("expected shed rejection at level 3, got %v", err)
	}
	if err := a.Admit(0, mkReport(1, 1)); err != nil {
		t.Fatalf("control tx rejected at level 3: %v", err)
	}
	// Draining to just below the level-3 threshold is NOT enough to
	// step down (hysteresis)...
	drop := pool.Peek(8)
	pool.MarkCommitted(drop)
	if lvl := a.Recalc(); lvl != 3 {
		t.Fatalf("level dropped without hysteresis margin: %d", lvl)
	}
	// ...but draining below 0.8x the threshold steps down one level at
	// a time.
	pool.MarkCommitted(pool.Peek(30))
	if lvl := a.Recalc(); lvl != 2 {
		t.Fatalf("level after deep drain = %d, want 2", lvl)
	}
	if st := a.Stats(); st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
}

// The latency EWMA input must escalate the shed level on its own.
func TestAdmissionLatencyEscalation(t *testing.T) {
	pool := NewMempool(1000, &QoSConfig{})
	a := NewAdmission(AdmissionConfig{Rate: 1e9, LatencyTarget: 100 * time.Millisecond})
	a.BindPool(pool)
	if lvl := a.Recalc(); lvl != 0 {
		t.Fatalf("initial level = %d", lvl)
	}
	a.Observe(time.Second, 2*time.Second)
	if lvl := a.Level(); lvl != 1 {
		t.Fatalf("level after slow commit = %d, want 1", lvl)
	}
	if st := a.Stats(); st.LatencyEWMA == 0 {
		t.Fatal("EWMA not recorded")
	}
}

// Exempt identities (a node's own control traffic) bypass the buckets.
func TestAdmissionExempt(t *testing.T) {
	self := gcrypto.DeterministicKeyPair(7).Address()
	a := NewAdmission(AdmissionConfig{Rate: 0.001, Burst: 1, Exempt: []gcrypto.Address{self}})
	for i := 0; i < 10; i++ {
		if err := a.Admit(0, mkTx(7, uint64(i))); err != nil {
			t.Fatalf("exempt tx %d rejected: %v", i, err)
		}
	}
}

// The bucket table must stay bounded under a Sybil flood of fresh
// identities, recycling the stalest bucket deterministically.
func TestAdmissionIdentityBound(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Rate: 100, MaxIdentities: 16})
	for i := 0; i < 100; i++ {
		_ = a.Admit(consensus.Time(i)*time.Millisecond, mkTx(i+1, 1))
	}
	if st := a.Stats(); st.Identities > 16 {
		t.Fatalf("bucket table grew to %d, bound is 16", st.Identities)
	}
}

// A QoS pool with default knobs must keep serving ALL lanes (no
// starvation): bulk traffic trickles out even while higher lanes stay
// populated.
func TestQoSNoLaneStarvation(t *testing.T) {
	p := NewMempool(10000, &QoSConfig{FairShare: 1})
	for i := 0; i < 100; i++ {
		if err := p.Add(mkTx(1, uint64(i))); err != nil { // all but 1 bulk
			t.Fatal(err)
		}
		if err := p.Add(mkReport(2, uint64(i))); err != nil { // control
			t.Fatal(err)
		}
	}
	got := p.Peek(26)
	counts := map[types.TxType]int{}
	for i := range got {
		counts[got[i].Type]++
	}
	// Two full cycles of weights 8/4/1: 16+ control, 2 normal-lane, 2 bulk.
	if counts[types.TxNormal] < 2 {
		t.Fatalf("bulk lane starved: %v", counts)
	}
	if counts[types.TxLocationReport] < 16 {
		t.Fatalf("control lane under-served: %v", counts)
	}
}
