package harness

import (
	"fmt"
	"io"
	"time"

	"gpbft"
	"gpbft/internal/stats"
)

// MeasureThroughput saturates the system with a deep backlog and
// measures sustained commit throughput in transactions per second —
// the TPS metric the paper mentions as the conventional alternative to
// its latency measurements (Section V-B).
func (c *Config) MeasureThroughput(proto gpbft.Protocol, n int, seed int64) (float64, error) {
	o := c.clusterOptions(proto, n, seed)
	o.ForceEraSwitch = false
	o.DisableEraSwitch = true
	cl, err := gpbft.NewCluster(o)
	if err != nil {
		return 0, err
	}
	// Pre-load a backlog large enough to keep the pipeline saturated.
	backlog := 40 * o.BatchSize
	for k := 0; k < backlog; k++ {
		at := 10*time.Millisecond + time.Duration(k)*time.Microsecond
		cl.SubmitNodeTx(at, k%n, []byte{byte(k), byte(k >> 8)}, 1)
	}
	cl.RunUntilIdle(c.DrainCap)
	committed := cl.Metrics().CommittedCount()
	if committed == 0 {
		return 0, fmt.Errorf("harness: %v n=%d: nothing committed", proto, n)
	}
	// Sustained rate: committed transactions over the time from first
	// submission to quiescence.
	elapsed := cl.Now() - 10*time.Millisecond
	if elapsed <= 0 {
		return 0, fmt.Errorf("harness: zero elapsed time")
	}
	return float64(committed) / elapsed.Seconds(), nil
}

// Throughput sweeps node counts and prints a TPS comparison table (an
// extension experiment; not in the paper's evaluation).
func (c *Config) Throughput(w io.Writer) (*stats.Table, error) {
	t := stats.NewTable("Extension — sustained throughput (TPS), PBFT vs G-PBFT",
		"nodes", "PBFT (tx/s)", "G-PBFT (tx/s)", "gain")
	for _, n := range c.Sizes {
		p, err := c.MeasureThroughput(gpbft.PBFT, n, c.Seed)
		if err != nil {
			return nil, err
		}
		g, err := c.MeasureThroughput(gpbft.GPBFT, n, c.Seed)
		if err != nil {
			return nil, err
		}
		gain := 0.0
		if p > 0 {
			gain = g / p
		}
		t.AddRow(n, fmt.Sprintf("%.0f", p), fmt.Sprintf("%.0f", g), fmt.Sprintf("%.1fx", gain))
	}
	fmt.Fprintln(w, t)
	return t, nil
}
