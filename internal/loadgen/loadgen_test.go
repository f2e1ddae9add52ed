package loadgen

import (
	"path/filepath"
	"testing"
	"time"
)

func TestReportRoundtripAndCompare(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_tps.json")

	r, err := LoadReport(path, MetricTPS)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric != MetricTPS || len(r.Entries) != 0 {
		t.Fatalf("bootstrap report: %+v", r)
	}
	r.Upsert(Entry{Name: "a", Value: 100})
	r.Upsert(Entry{Name: "b", Value: 50})
	r.Upsert(Entry{Name: "a", Value: 120}) // replaces
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path, MetricTPS)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 || got.Find("a").Value != 120 {
		t.Fatalf("roundtrip: %+v", got)
	}

	fresh := &Report{Metric: MetricTPS, Entries: []Entry{
		{Name: "a", Value: 95},  // within 20% of 120? 120*0.8=96 → 95 regresses
		{Name: "b", Value: 49},  // within 20% of 50
		{Name: "new", Value: 1}, // no baseline: ignored
	}}
	regs := Compare(got, fresh, 0.2)
	if len(regs) != 1 {
		t.Fatalf("want 1 regression, got %v", regs)
	}

	lat := &Report{Metric: MetricLatency, Entries: []Entry{{Name: "a", P99Ms: 100}}}
	freshLat := &Report{Metric: MetricLatency, Entries: []Entry{{Name: "a", P99Ms: 130}}}
	if regs := Compare(lat, freshLat, 0.2); len(regs) != 1 {
		t.Fatalf("latency regression not caught: %v", regs)
	}
	if regs := Compare(lat, freshLat, 0.5); len(regs) != 0 {
		t.Fatalf("latency within tolerance flagged: %v", regs)
	}
}

func TestRunSimSmall(t *testing.T) {
	res, err := Run("test-sim", Config{Mode: "sim", Committee: 4, Rate: 100, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.TPS <= 0 {
		t.Fatalf("sim run: %+v", res)
	}
	if res.Name != "test-sim" || res.Mode != "sim" || res.Committee != 4 {
		t.Fatalf("metadata: %+v", res)
	}
}

// TestRunSimDeterministic: same config, same seed, same TPS — the
// property the CI bench gate relies on.
func TestRunSimDeterministic(t *testing.T) {
	cfg := Config{Mode: "sim", Committee: 4, Rate: 100, Duration: time.Second, Seed: 42}
	a, err := Run("det", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("det", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TPS != b.TPS || a.Committed != b.Committed || a.P99Ms != b.P99Ms {
		t.Fatalf("non-deterministic sim: %+v vs %+v", a, b)
	}
}

func TestRunTCPSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp load run in -short mode")
	}
	res, err := Run("test-tcp", Config{Mode: "tcp", Committee: 4, Rate: 50, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed == 0 || res.TPS <= 0 {
		t.Fatalf("tcp run: %+v", res)
	}
	if res.Offered > 0 && res.Committed > res.Offered {
		t.Fatalf("committed %d exceeds offered %d", res.Committed, res.Offered)
	}
}

// TestRunTCPSaturatedPullsNothing: offered far more than it can commit
// in the window, the cluster runs its pipeline full the whole time —
// commits for slots ahead of a node's head are the normal case, not a
// sign of lag, and no block may travel by block sync.
func TestRunTCPSaturatedPullsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp load run in -short mode")
	}
	res, err := Run("test-tcp-sat", Config{Mode: "tcp", Committee: 4, Rate: 4000, Duration: time.Second, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != res.Offered {
		t.Fatalf("committed %d of %d", res.Committed, res.Offered)
	}
	if res.BlocksSynced != 0 {
		t.Fatalf("%d blocks travelled by block sync on a crash-free run", res.BlocksSynced)
	}
}
