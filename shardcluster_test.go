package gpbft

import (
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
)

func shardOptions(regions, nodes int) Options {
	o := DefaultOptions(GPBFT, nodes)
	o.ShardRegions = regions
	o.DisableEraSwitch = true
	return o
}

func TestShardClusterSingleRegionCommits(t *testing.T) {
	s, err := NewShardCluster(shardOptions(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		s.SubmitNodeTx(time.Duration(k+1)*50*time.Millisecond, 0, k%4, []byte{byte(k)}, 1)
	}
	s.StartAnchors(3 * time.Second)
	s.RunUntilIdle(time.Minute)
	if got := s.Metrics().CommittedCount(); got != 8 {
		t.Fatalf("committed %d of 8", got)
	}
	if _, err := s.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	// The anchor committee attested the lone region's progress.
	pt, ok := s.AnchorNode(0).App.Chain().AnchorLatest(s.Prefix(0))
	if !ok || pt.Height == 0 {
		t.Fatalf("region head never anchored: %+v, %v", pt, ok)
	}
}

func TestShardClusterParallelRegionsAndTransfer(t *testing.T) {
	s, err := NewShardCluster(shardOptions(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Regions() != 2 || s.AnchorSize() != 4 {
		t.Fatalf("regions=%d anchors=%d", s.Regions(), s.AnchorSize())
	}
	// Independent traffic in both regions.
	for k := 0; k < 6; k++ {
		at := time.Duration(k+1) * 50 * time.Millisecond
		s.SubmitNodeTx(at, 0, k%4, []byte{1, byte(k)}, 1)
		s.SubmitNodeTx(at, 1, k%4, []byte{2, byte(k)}, 1)
	}
	// A cross-region transfer: lock in region 0, credit in region 1.
	recipient := gcrypto.DeterministicKeyPair(777_000).Address()
	if _, err := s.SubmitTransfer(100*time.Millisecond, 0, 0, 1, recipient, 42); err != nil {
		t.Fatal(err)
	}
	s.StartAnchors(8 * time.Second)
	s.RunUntilIdle(time.Minute)

	if _, err := s.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().CommittedCount(); got < 13 {
		t.Fatalf("committed %d of 13", got)
	}
	if got := s.TransfersApplied(); got != 1 {
		t.Fatalf("transfers applied: %d", got)
	}
	// The credit landed exactly once in the destination region.
	destChain := s.Region(1).Node(0).App.Chain()
	if bal := destChain.Rewards().Balance(recipient); bal != 42 {
		t.Fatalf("recipient balance %d, want 42", bal)
	}
	// And the source region minted exactly one outbound receipt,
	// debiting the sender — value moved across regions, never minted.
	srcChain := s.Region(0).Node(0).App.Chain()
	if n := srcChain.OutboundCount(); n != 1 {
		t.Fatalf("outbound receipts: %d", n)
	}
	if n := srcChain.LockRejects(); n != 0 {
		t.Fatalf("lock rejects: %d", n)
	}
	// Without the debit the sender would sit at endowment plus fee
	// income; the locked 42 exceeds this run's total fees, so the
	// balance must have dropped below the endowment.
	sender := s.Region(0).Address(0)
	if bal := srcChain.Rewards().Balance(sender); bal >= DefaultEndorserEndowment {
		t.Fatalf("sender balance %d: lock never debited", bal)
	}
}

func TestShardClusterRegionRouting(t *testing.T) {
	s, err := NewShardCluster(shardOptions(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Regions(); i++ {
		for k := 0; k < s.Region(i).NodeCount(); k++ {
			got, ok := s.RegionFor(s.Region(i).Position(k))
			if !ok || got != i {
				t.Fatalf("node %d of region %d routed to %d (%v)", k, i, got, ok)
			}
		}
	}
	// Delegates route to their home region too.
	for j := 0; j < s.AnchorSize(); j++ {
		got, ok := s.RegionFor(s.anchor.Position(j))
		if !ok || got != j%s.Regions() {
			t.Fatalf("delegate %d routed to %d (%v)", j, got, ok)
		}
	}
}

// TestRecoveredDelegateCatchesUp crashes anchor member 0, region 0's
// first delegate, while the other three keep the anchor committee's
// quorum and commit region checkpoints. Recovered, the delegate must
// pull the anchor blocks it missed: it is again the one that reads the
// anchor chain for region 0, so a transfer into region 0 is applied
// only if its replica has caught up.
func TestRecoveredDelegateCatchesUp(t *testing.T) {
	s, err := NewShardCluster(shardOptions(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 80; k++ {
		at := time.Duration(k+1) * 100 * time.Millisecond
		s.SubmitNodeTx(at, 0, k%4, []byte{1, byte(k)}, 1)
		s.SubmitNodeTx(at, 1, k%4, []byte{2, byte(k)}, 1)
	}
	s.Net().Schedule(500*time.Millisecond, func(consensus.Time) { s.CrashDelegate(0) })
	s.Net().Schedule(4*time.Second, func(consensus.Time) { s.RecoverDelegate(0) })
	recipient := gcrypto.DeterministicKeyPair(777_001).Address()
	if _, err := s.SubmitTransfer(5*time.Second, 1, 0, 0, recipient, 42); err != nil {
		t.Fatal(err)
	}
	s.StartAnchors(10 * time.Second)
	s.RunUntilIdle(time.Minute)

	if _, err := s.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	heights := make([]uint64, s.AnchorSize())
	for j := range heights {
		heights[j] = s.AnchorNode(j).App.Chain().Height()
	}
	for _, h := range heights[1:] {
		if h != heights[0] {
			t.Fatalf("anchor heights %v, want one height", heights)
		}
	}
	if got := s.TransfersApplied(); got != 1 {
		t.Fatalf("applied %d of 1 transfers (anchor heights %v)", got, heights)
	}
}

// shardRun is one point of TestShardScaling.
type shardRun struct {
	tps, p50Ms          float64
	transfers, received int
}

// measureShardRun offers 4000 tx/s for 2 s — far beyond one 7-node
// committee's saturation point — spread round-robin over `regions`
// region committees of 7 nodes each, with 8 cross-region transfers per
// region in flight when there is more than one region. The anchors run
// 20 s past the load window so every receipt is anchored and applied.
// TPS is measured from the first submission to the last tracked commit:
// the anchor pump keeps the event loop ticking long after the workload
// drains.
func measureShardRun(t *testing.T, regions int) shardRun {
	t.Helper()
	const (
		nodes  = 7
		window = 2 * time.Second
		start  = 10 * time.Millisecond
		total  = 4000 * 2
	)
	s, err := NewShardCluster(shardOptions(regions, nodes))
	if err != nil {
		t.Fatal(err)
	}
	interval := window / total
	for k := 0; k < total; k++ {
		at := start + time.Duration(k)*interval
		s.SubmitNodeTx(at, k%regions, (k/regions)%nodes, []byte{byte(k), byte(k >> 8), byte(k >> 16)}, 1)
	}
	if regions > 1 {
		transfers := 8 * regions
		tInterval := window / time.Duration(transfers)
		for k := 0; k < transfers; k++ {
			recipient := gcrypto.DeterministicKeyPair(700_000 + k).Address()
			if _, err := s.SubmitTransfer(start+time.Duration(k)*tInterval, k%regions, k%nodes, (k+1)%regions, recipient, uint64(k+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain := window + 20*time.Second
	s.StartAnchors(drain)
	s.RunUntilIdle(drain + 5*time.Minute)
	if _, err := s.VerifyAgreement(); err != nil {
		t.Fatalf("r%d: %v", regions, err)
	}
	m := s.Metrics()
	committed := m.CommittedCount()
	if committed < total {
		t.Fatalf("r%d: committed %d of %d", regions, committed, total)
	}
	return shardRun{
		tps:       float64(committed) / (time.Duration(m.LastCommitAt()) - start).Seconds(),
		p50Ms:     float64(m.Quantile(0.50)) / float64(time.Millisecond),
		transfers: s.TransfersSubmitted(),
		received:  s.TransfersApplied(),
	}
}

// TestShardScaling is the hierarchy's scaling claim on the virtual-time
// simulator, deterministic per seed. At the same total offered load:
//
//  1. parallelism pays — 4 regions commit at least 3x the aggregate TPS
//     of the anchored single-region baseline;
//  2. the anchor layer stays off the hot path — the 4-region commit p50
//     stays within 1.5x of the baseline's;
//  3. cross-region transfers are exactly-once — every submitted transfer
//     was applied at its destination (the ledger refuses double credits,
//     so applied == submitted is the whole invariant).
func TestShardScaling(t *testing.T) {
	t.Parallel() // the two longest tests in the package overlap
	r1, r4 := measureShardRun(t, 1), measureShardRun(t, 4)
	if r4.tps < 3*r1.tps {
		t.Fatalf("r4 aggregate TPS %.1f below 3x the single-region %.1f", r4.tps, r1.tps)
	}
	if r4.p50Ms > 1.5*r1.p50Ms {
		t.Fatalf("r4 p50 %.1f ms exceeds 1.5x the single-region %.1f ms", r4.p50Ms, r1.p50Ms)
	}
	for _, r := range []shardRun{r1, r4} {
		if r.received != r.transfers {
			t.Fatalf("applied %d of %d cross-region transfers", r.received, r.transfers)
		}
	}
	t.Logf("r4/r1 TPS %.2f (%.1f vs %.1f tx/s), p50 %.0f ms vs %.0f ms, transfers %d of %d",
		r4.tps/r1.tps, r4.tps, r1.tps, r4.p50Ms, r1.p50Ms, r4.received, r4.transfers)
}
