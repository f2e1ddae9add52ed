// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus the ablations called out in DESIGN.md and
// micro-benchmarks of the hot substrates.
//
// Each figure benchmark executes a scaled-down instance of the
// corresponding experiment per iteration and reports the measured
// quantity via b.ReportMetric (latency in s, traffic in KB, ratios).
// Paper-scale numbers are produced by `go run ./cmd/gpbft-sim -full`.
package gpbft_test

import (
	"fmt"
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/geo"
	"gpbft/internal/harness"
	"gpbft/internal/ledger"
	"gpbft/internal/stats"
)

// benchConfig is a scaled-down experiment configuration that keeps a
// single benchmark iteration under roughly a second.
func benchConfig() harness.Config {
	c := harness.Quick()
	c.Runs = 1
	c.LoadWindow = 3 * time.Second
	c.PerNodeInterval = time.Second
	c.ReportEvery = time.Second
	c.EraPeriod = 2 * time.Second
	c.MaxEndorsers = 8
	c.Profile = gpbft.NetworkProfile{
		LatencyBase:   500 * time.Microsecond,
		LatencyJitter: 200 * time.Microsecond,
		ProcTime:      300 * time.Microsecond,
		SendTime:      30 * time.Microsecond,
	}
	c.DrainCap = 2 * time.Minute
	return c
}

// --- Figure 3a: PBFT consensus latency under load ---

func BenchmarkFig3aPBFTLatency(b *testing.B) {
	c := benchConfig()
	var mean float64
	for i := 0; i < b.N; i++ {
		lats, err := c.MeasureLatencyRun(gpbft.PBFT, 24, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		mean = stats.Mean(lats)
	}
	b.ReportMetric(mean, "latency-s")
}

// --- Figure 3b: G-PBFT consensus latency with a capped committee ---

func BenchmarkFig3bGPBFTLatency(b *testing.B) {
	c := benchConfig()
	var mean float64
	for i := 0; i < b.N; i++ {
		lats, err := c.MeasureLatencyRun(gpbft.GPBFT, 24, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		mean = stats.Mean(lats)
	}
	b.ReportMetric(mean, "latency-s")
}

// --- Figure 4: latency comparison (speedup of G-PBFT over PBFT) ---

func BenchmarkFig4LatencyComparison(b *testing.B) {
	c := benchConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		pl, err := c.MeasureLatencyRun(gpbft.PBFT, 24, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		gl, err := c.MeasureLatencyRun(gpbft.GPBFT, 24, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if g := stats.Mean(gl); g > 0 {
			speedup = stats.Mean(pl) / g
		}
	}
	b.ReportMetric(speedup, "speedup-x")
}

// --- Figure 5a: PBFT communication cost per transaction ---

func BenchmarkFig5aPBFTCommCost(b *testing.B) {
	c := benchConfig()
	var kb float64
	for i := 0; i < b.N; i++ {
		var err error
		kb, _, err = c.MeasureCommCost(gpbft.PBFT, 32, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(kb, "KB")
}

// --- Figure 5b: G-PBFT communication cost plateaus at the cap ---

func BenchmarkFig5bGPBFTCommCost(b *testing.B) {
	c := benchConfig()
	var kb float64
	for i := 0; i < b.N; i++ {
		var err error
		kb, _, err = c.MeasureCommCost(gpbft.GPBFT, 32, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(kb, "KB")
}

// --- Figure 6: communication-cost reduction ---

func BenchmarkFig6CommComparison(b *testing.B) {
	c := benchConfig()
	var reduction float64
	for i := 0; i < b.N; i++ {
		p, _, err := c.MeasureCommCost(gpbft.PBFT, 32, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		g, _, err := c.MeasureCommCost(gpbft.GPBFT, 32, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if p > 0 {
			reduction = 100 * (1 - g/p)
		}
	}
	b.ReportMetric(reduction, "reduction-%")
}

// --- Table III: the n-largest headline comparison ---

func BenchmarkTable3Headline(b *testing.B) {
	c := benchConfig()
	const n = 40
	var latRatio, costRatio float64
	for i := 0; i < b.N; i++ {
		pl, err := c.MeasureLatencyRun(gpbft.PBFT, n, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		gl, err := c.MeasureLatencyRun(gpbft.GPBFT, n, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		pk, _, err := c.MeasureCommCost(gpbft.PBFT, n, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		gk, _, err := c.MeasureCommCost(gpbft.GPBFT, n, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if p := stats.Mean(pl); p > 0 {
			latRatio = 100 * stats.Mean(gl) / p
		}
		if pk > 0 {
			costRatio = 100 * gk / pk
		}
	}
	b.ReportMetric(latRatio, "latency-ratio-%")
	b.ReportMetric(costRatio, "cost-ratio-%")
}

// --- Table II: election-table row throughput ---

func BenchmarkTable2ElectionTable(b *testing.B) {
	table := ledger.NewElectionTable()
	loc := geo.Point{Lng: 114.1795, Lat: 22.3050}
	epoch := time.Date(2019, 8, 5, 18, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := geo.Report{
			Location:  loc,
			Timestamp: epoch.Add(time.Duration(i) * time.Second),
			Address:   fmt.Sprintf("device-%d", i%64),
		}
		if _, err := table.Record(rep); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section IV: analytic model probe (unloaded single-tx commit) ---

func BenchmarkAnalyticModel(b *testing.B) {
	c := benchConfig()
	c.Sizes = []int{16}
	var rows int
	for i := 0; i < b.N; i++ {
		t, err := c.Model(discard{})
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationCommitteeCap sweeps MaxEndorsers: the paper's core
// trade-off between committee size and cost.
func BenchmarkAblationCommitteeCap(b *testing.B) {
	for _, cap := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("cap-%d", cap), func(b *testing.B) {
			c := benchConfig()
			c.MaxEndorsers = cap
			var kb float64
			for i := 0; i < b.N; i++ {
				var err error
				kb, _, err = c.MeasureCommCost(gpbft.GPBFT, 32, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(kb, "KB")
		})
	}
}

// BenchmarkAblationEraPeriod sweeps T: short eras pause the system
// often (switch periods), long eras react slowly.
func BenchmarkAblationEraPeriod(b *testing.B) {
	for _, T := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second} {
		b.Run(fmt.Sprintf("T-%v", T), func(b *testing.B) {
			c := benchConfig()
			c.EraPeriod = T
			var mean float64
			for i := 0; i < b.N; i++ {
				lats, err := c.MeasureLatencyRun(gpbft.GPBFT, 16, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				mean = stats.Mean(lats)
			}
			b.ReportMetric(mean, "latency-s")
		})
	}
}

// BenchmarkAblationProposerPolicy compares geographic-timer proposer
// bias against plain address rotation.
func BenchmarkAblationProposerPolicy(b *testing.B) {
	for _, geoTimer := range []bool{true, false} {
		name := "geo-timer"
		if !geoTimer {
			name = "address"
		}
		b.Run(name, func(b *testing.B) {
			c := benchConfig()
			var mean float64
			for i := 0; i < b.N; i++ {
				o := gpbft.DefaultOptions(gpbft.GPBFT, 16)
				o.Seed = int64(i + 1)
				o.Network = c.Profile
				o.MaxEndorsers = 8
				o.GeoTimerProposer = geoTimer
				o.DisableEraSwitch = true
				cl, err := gpbft.NewCluster(o)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 16; k++ {
					cl.SubmitNodeTx(time.Duration(10+k*50)*time.Millisecond, k, []byte{byte(k)}, 1)
				}
				cl.RunUntilIdle(time.Minute)
				mean = cl.Metrics().MeanLatency().Seconds()
			}
			b.ReportMetric(mean, "latency-s")
		})
	}
}

// BenchmarkAblationBatchSize sweeps transactions per block.
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			var mean, tps float64
			for i := 0; i < b.N; i++ {
				o := gpbft.DefaultOptions(gpbft.GPBFT, 16)
				o.Seed = int64(i + 1)
				o.Network = benchConfig().Profile
				o.MaxEndorsers = 8
				o.BatchSize = batch
				o.DisableEraSwitch = true
				cl, err := gpbft.NewCluster(o)
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 32; k++ {
					cl.SubmitNodeTx(time.Duration(10+k*20)*time.Millisecond, k%16, []byte{byte(k)}, 1)
				}
				cl.RunUntilIdle(time.Minute)
				mean = cl.Metrics().MeanLatency().Seconds()
				// Committed TPS over the whole virtual run.
				if elapsed := cl.Now().Seconds(); elapsed > 0 {
					tps = float64(cl.Metrics().CommittedCount()) / elapsed
				}
			}
			b.ReportMetric(mean, "latency-s")
			b.ReportMetric(tps, "committed-tps")
		})
	}
}
