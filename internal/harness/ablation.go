package harness

import (
	"fmt"
	"io"
	"time"

	"gpbft"
	"gpbft/internal/gcrypto"
	"gpbft/internal/stats"
)

// Ablations runs the design-choice sweeps called out in DESIGN.md §5:
// committee cap, era period, proposer policy, and batch size. Each
// sweep isolates one knob with everything else at the experiment
// defaults, using a mid-size population.
func (c *Config) Ablations(w io.Writer) error {
	if err := c.ablationCommitteeCap(w); err != nil {
		return err
	}
	if err := c.ablationEraPeriod(w); err != nil {
		return err
	}
	if err := c.ablationProposerPolicy(w); err != nil {
		return err
	}
	return c.ablationBatchSize(w)
}

func (c *Config) ablationCommitteeCap(w io.Writer) error {
	const n = 112
	t := stats.NewTable(fmt.Sprintf("Ablation — committee cap (n = %d devices)", n),
		"max endorsers", "mean latency(s)", "comm cost(KB)")
	for _, cap := range []int{10, 20, 40, 80} {
		cc := *c
		cc.MaxEndorsers = cap
		lats, err := cc.MeasureLatencyRun(gpbft.GPBFT, n, cc.Seed)
		if err != nil {
			return err
		}
		kb, _, err := cc.MeasureCommCost(gpbft.GPBFT, n, cc.Seed)
		if err != nil {
			return err
		}
		t.AddRow(cap, fmt.Sprintf("%.3f", stats.Mean(lats)), fmt.Sprintf("%.1f", kb))
	}
	fmt.Fprintln(w, t)
	return nil
}

func (c *Config) ablationEraPeriod(w io.Writer) error {
	const n = 60
	t := stats.NewTable(fmt.Sprintf("Ablation — era period T (n = %d devices)", n),
		"T", "mean latency(s)", "max latency(s)", "era switches")
	for _, T := range []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second, 60 * time.Second} {
		cc := *c
		cc.EraPeriod = T
		o := cc.clusterOptions(gpbft.GPBFT, n, cc.Seed)
		cl, err := gpbft.NewCluster(o)
		if err != nil {
			return err
		}
		reports := int((time.Second + cc.LoadWindow) / cc.ReportEvery)
		for i := 0; i < n; i++ {
			cl.ScheduleReports(i, 50*time.Millisecond, cc.ReportEvery, reports)
		}
		for i := 0; i < n; i++ {
			offset := time.Second + time.Duration(i)*cc.PerNodeInterval/time.Duration(n)
			for at := offset; at < time.Second+cc.LoadWindow; at += cc.PerNodeInterval {
				cl.SubmitNodeTx(at, i, []byte{byte(i)}, 1)
			}
		}
		cl.RunUntilIdle(time.Second + cc.LoadWindow + cc.DrainCap)
		m := cl.Metrics()
		t.AddRow(T, fmt.Sprintf("%.3f", m.MeanLatency().Seconds()),
			fmt.Sprintf("%.3f", m.MaxLatency().Seconds()), m.EraSwitches())
	}
	fmt.Fprintln(w, t)
	return nil
}

func (c *Config) ablationProposerPolicy(w io.Writer) error {
	const n = 24
	t := stats.NewTable(fmt.Sprintf("Ablation — proposer policy (n = %d devices)", n),
		"policy", "mean latency(s)", "distinct proposers")
	for _, geoTimer := range []bool{true, false} {
		name := "geo-timer bias"
		if !geoTimer {
			name = "address rotation"
		}
		o := c.clusterOptions(gpbft.GPBFT, n, c.Seed)
		o.GeoTimerProposer = geoTimer
		cl, err := gpbft.NewCluster(o)
		if err != nil {
			return err
		}
		reports := int((time.Second + c.LoadWindow) / c.ReportEvery)
		for i := 0; i < n; i++ {
			cl.ScheduleReports(i, 50*time.Millisecond, c.ReportEvery, reports)
		}
		for i := 0; i < n; i++ {
			offset := time.Second + time.Duration(i)*c.PerNodeInterval/time.Duration(n)
			for at := offset; at < time.Second+c.LoadWindow; at += c.PerNodeInterval {
				cl.SubmitNodeTx(at, i, []byte{byte(i)}, 1)
			}
		}
		cl.RunUntilIdle(time.Second + c.LoadWindow + c.DrainCap)

		proposers := map[gcrypto.Address]bool{}
		for _, b := range cl.Node(0).App.Chain().Blocks() {
			if b.Header.Height > 0 {
				proposers[b.Header.Proposer] = true
			}
		}
		t.AddRow(name, fmt.Sprintf("%.3f", cl.Metrics().MeanLatency().Seconds()), len(proposers))
	}
	fmt.Fprintln(w, t)
	return nil
}

func (c *Config) ablationBatchSize(w io.Writer) error {
	const n = 40
	t := stats.NewTable(fmt.Sprintf("Ablation — batch size (n = %d devices)", n),
		"txs/block", "mean latency(s)", "blocks")
	for _, batch := range []int{1, 8, 32, 128} {
		o := c.clusterOptions(gpbft.GPBFT, n, c.Seed)
		o.BatchSize = batch
		o.DisableEraSwitch = true
		o.ForceEraSwitch = false
		cl, err := gpbft.NewCluster(o)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			offset := time.Second + time.Duration(i)*c.PerNodeInterval/time.Duration(n)
			for at := offset; at < time.Second+c.LoadWindow; at += c.PerNodeInterval {
				cl.SubmitNodeTx(at, i, []byte{byte(i)}, 1)
			}
		}
		cl.RunUntilIdle(time.Second + c.LoadWindow + c.DrainCap)
		t.AddRow(batch, fmt.Sprintf("%.3f", cl.Metrics().MeanLatency().Seconds()), cl.MaxHeight())
	}
	fmt.Fprintln(w, t)
	return nil
}
