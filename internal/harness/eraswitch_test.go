package harness

import (
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/consensus"
	"gpbft/internal/types"
)

// TestForcedSwitchCostsTheSwitchPeriod runs the Table III deployment in
// miniature across three switches: 60 devices, 20 endorsers, a forced
// era switch every 3 s, every device proposing twice a second. That
// keeps an endorser about two-thirds busy, as Table III does; at five a
// second the committee is over capacity and queues. An era switch must
// cost its switch period and one round: every offered transaction
// commits (none is dropped for arriving in a pause), no era opens with a
// view change, and no pause in commits that spans a switch comes near a
// view-change timeout.
func TestForcedSwitchCostsTheSwitchPeriod(t *testing.T) {
	cfg := Default()
	cfg.MaxEndorsers = 20
	cfg.EraPeriod = 3 * time.Second
	cfg.PerNodeInterval = 500 * time.Millisecond

	const n, warmup, window = 60, time.Second, 9 * time.Second
	o := cfg.clusterOptions(gpbft.GPBFT, n, 14)
	cl, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	o = cl.Options()

	// Per node: view changes completed by era instances that are gone,
	// and by the current one (an era switch replaces the instance).
	type views struct{ era, past, current uint64 }
	seen := make([]views, n)
	// On node 0: every commit gap that begins at a switch block — the
	// block after which the node's era advanced — and the view-change
	// timeout in effect when it began.
	var switchGaps, timeouts []time.Duration
	var configAt time.Duration
	chainEra := uint64(0)
	for i := 0; i < n; i++ {
		i := i
		node, eng, observe := cl.Node(i), cl.CoreEngine(i), cl.Node(i).OnCommit
		node.OnCommit = func(now consensus.Time, b *types.Block) {
			observe(now, b)
			v := &seen[i]
			if e := eng.Era(); e != v.era {
				v.era, v.past, v.current = e, v.past+v.current, 0
			}
			if in := eng.Inner(); in != nil {
				v.current = in.CompletedViewChanges()
			}
			if i != 0 {
				return
			}
			if configAt != 0 {
				switchGaps = append(switchGaps, now-configAt)
				configAt = 0
			}
			if e := node.App.Chain().Era(); e != chainEra {
				chainEra = e
				configAt = now
				timeouts = append(timeouts, eng.Inner().Timeout())
			}
		}
	}

	reports := int((warmup + window) / cfg.ReportEvery)
	offered := 0
	for i := 0; i < n; i++ {
		cl.ScheduleReports(i, 50*time.Millisecond+time.Duration(i)*cfg.ReportEvery/n, cfg.ReportEvery, reports)
		for at := warmup + time.Duration(i)*cfg.PerNodeInterval/n; at < warmup+window; at += cfg.PerNodeInterval {
			cl.SubmitNodeTx(at, i, []byte{byte(i), byte(offered)}, 1)
			offered++
		}
	}
	cl.RunUntilIdle(warmup + window + 5*time.Second)

	if _, err := cl.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Metrics().CommittedCount(); got != offered {
		t.Fatalf("committed %d of %d offered transactions", got, offered)
	}
	if len(switchGaps) < 3 {
		t.Fatalf("only %d era switches inside the run", len(switchGaps))
	}
	for k, gap := range switchGaps {
		if bound := o.SwitchPeriod + timeouts[k]/2; gap >= bound {
			t.Fatalf("switch %d: %v without a commit, want under %v (switch period %v)", k+1, gap, bound, o.SwitchPeriod)
		}
	}
	for i, v := range seen {
		if v.past+v.current != 0 {
			t.Fatalf("node %d completed %d view changes", i, v.past+v.current)
		}
	}
	for i := 0; i < n; i++ {
		if s := cl.SyncStats(i); s.RequestsHeld != s.RequestsRerelayed {
			t.Fatalf("node %d held %d requests and re-relayed %d", i, s.RequestsHeld, s.RequestsRerelayed)
		}
	}
	t.Logf("%d transactions, switch gaps %v (timeouts %v), p50 %v, max %v", offered, switchGaps, timeouts, cl.Metrics().Quantile(0.5), cl.Metrics().MaxLatency())
}
