package harness

import (
	"testing"
	"time"

	"gpbft"
)

// TestUnderfullRoundsAreNotBackToBack runs the paper's committee scale
// in the simulator at the repo benchmark's committee-scale load: 22
// endorsers, 100 tx/s through round-robin entry nodes, era switch off.
// A round there costs each endorser ~3n messages whatever it carries, so
// a primary that proposes the moment the previous block applies spends
// the committee on blocks of two or three transactions. Holding a small
// head block for half a round time must give rounds that carry what
// they cost — without a view change, without losing a transaction, and
// without paying for it in latency.
func TestUnderfullRoundsAreNotBackToBack(t *testing.T) {
	cfg := Default()

	const n, warmup, window, rate = 22, time.Second, 6 * time.Second, 100
	o := gpbft.DefaultOptions(gpbft.GPBFT, n)
	o.Seed = 17
	// The LAN profile with an endorser twice as fast (0.75 ms per message,
	// a round of ~40 ms): at the profile's own 1.5 ms a round lasts 100 ms,
	// ten transactions gather behind it whatever the primary does, and
	// the rule under test (fewer than f = 7 pending) never applies.
	o.Network = cfg.Profile
	o.Network.ProcTime /= 2
	o.Network.SendTime /= 2
	o.DisableEraSwitch = true
	cl, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	offered := 0
	for at := warmup; at < warmup+window; at += time.Second / rate {
		cl.SubmitNodeTx(at, offered%n, []byte{byte(offered), byte(offered >> 8)}, 1)
		offered++
	}
	cl.RunUntilIdle(warmup + window + 10*time.Second)

	if _, err := cl.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if got := m.CommittedCount(); got != offered {
		t.Fatalf("committed %d of %d offered transactions", got, offered)
	}
	held, fired := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		if v := cl.CoreEngine(i).Inner().CompletedViewChanges(); v != 0 {
			t.Fatalf("node %d completed %d view changes", i, v)
		}
		held += cl.SyncStats(i).ProposalsHeld
		fired += cl.SyncStats(i).ProposalsHeldFired
	}
	blocks := cl.MaxHeight()
	perBlock := float64(offered) / float64(blocks)
	t.Logf("%d transactions in %d blocks (%.2f per block), %d holds (%d ran their time), p50 %v, max %v",
		offered, blocks, perBlock, held, fired, m.Quantile(0.5), m.MaxLatency())
	if perBlock < 4 {
		t.Fatalf("%.2f transactions per block over %d blocks, want at least 4", perBlock, blocks)
	}
	if held == 0 {
		t.Fatal("no proposal was ever held")
	}
	// A transaction waits for the next proposal, on average half a cycle
	// (round + hold), and then for its round, which is no longer than the
	// cycle: the median stays under a cycle and a half, measured here as
	// the window over the blocks it produced.
	cycle := window / time.Duration(blocks)
	if p50 := m.Quantile(0.5); p50 > cycle*3/2 {
		t.Fatalf("p50 %v with a block every %v, want at most a cycle and a half", p50, cycle)
	}
}
