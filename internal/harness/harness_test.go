package harness

import (
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpbft"
)

// tinyConfig keeps harness tests fast: small sizes, short windows, a
// snappier simulated CPU.
func tinyConfig() Config {
	c := Quick()
	c.Sizes = []int{4, 10}
	c.Runs = 1
	c.LoadWindow = 3 * time.Second
	c.PerNodeInterval = time.Second
	c.ReportEvery = time.Second
	c.EraPeriod = 2 * time.Second
	c.MaxEndorsers = 6
	c.Profile = gpbft.NetworkProfile{
		LatencyBase:   500 * time.Microsecond,
		LatencyJitter: 200 * time.Microsecond,
		ProcTime:      200 * time.Microsecond,
		SendTime:      20 * time.Microsecond,
	}
	c.DrainCap = time.Minute
	return c
}

func TestMeasureLatencyRunBothProtocols(t *testing.T) {
	c := tinyConfig()
	for _, proto := range []gpbft.Protocol{gpbft.PBFT, gpbft.GPBFT} {
		lats, err := c.MeasureLatencyRun(proto, 10, 1)
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if len(lats) < 10 {
			t.Fatalf("%v: only %d latencies", proto, len(lats))
		}
		for _, l := range lats {
			if l <= 0 || l > 60 {
				t.Fatalf("%v: implausible latency %v", proto, l)
			}
		}
	}
}

func TestMeasureCommCostShape(t *testing.T) {
	c := tinyConfig()
	pKB, pMsgs, err := c.MeasureCommCost(gpbft.PBFT, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	gKB, gMsgs, err := c.MeasureCommCost(gpbft.GPBFT, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Committee cap 6 vs 24 full nodes: G-PBFT must be far cheaper.
	if gKB*2 > pKB {
		t.Fatalf("G-PBFT %.1fKB (%d msgs) not well below PBFT %.1fKB (%d msgs)",
			gKB, gMsgs, pKB, pMsgs)
	}
	// Rough magnitude: PBFT message count is dominated by the two
	// quadratic phases.
	if pMsgs < int64(24*24) {
		t.Fatalf("PBFT msgs %d below n^2", pMsgs)
	}
}

func TestCommCostPlateausAtCap(t *testing.T) {
	c := tinyConfig()
	kbAtCap, _, err := c.MeasureCommCost(gpbft.GPBFT, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	kbBeyond, _, err := c.MeasureCommCost(gpbft.GPBFT, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Past the cap the committee stays 6; cost must stay in the same
	// ballpark (within 2x), not grow ~25x as n did.
	if kbBeyond > 2*kbAtCap {
		t.Fatalf("G-PBFT cost did not plateau: %.1fKB at cap vs %.1fKB at n=30", kbAtCap, kbBeyond)
	}
}

func TestFigurePipelinesEmitTables(t *testing.T) {
	c := tinyConfig()
	var sb strings.Builder

	pl, err := c.Fig3a(&sb)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := c.Fig3b(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fig4(&sb, pl, gl); err != nil {
		t.Fatal(err)
	}
	pc, err := c.Fig5a(&sb)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := c.Fig5b(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fig6(&sb, pc, gc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table3(&sb, pl, gl, pc, gc); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 3a", "Figure 3b", "Figure 4", "Figure 5a", "Figure 5b", "Figure 6", "Table III"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestStaticTables(t *testing.T) {
	var sb strings.Builder
	t2 := Table2(&sb)
	if len(t2.Rows) != 5 {
		t.Fatalf("Table II rows: %d", len(t2.Rows))
	}
	t4 := Table4(&sb)
	if len(t4.Rows) != 11 {
		t.Fatalf("Table IV rows: %d", len(t4.Rows))
	}
	if !strings.Contains(sb.String(), "G-PBFT") {
		t.Fatal("tables missing G-PBFT row")
	}
}

// TestModelTable regenerates the n = 22, 58 and 112 rows of the
// Section IV model table, as `gpbft-sim -exp model -sizes 22,58,112
// -runs 3` does, and requires them to read exactly as the recorded
// results/model.txt: the simulated cluster is deterministic per seed,
// so any drift is a behaviour change.
func TestModelTable(t *testing.T) {
	c := Quick()
	c.Sizes = []int{22, 58, 112}
	tb, err := c.Model(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../../results/model.txt")
	if err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]string) // "nodes protocol" -> whole row
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 6 {
			recorded[f[0]+" "+f[1]] = strings.Join(f, " ")
		}
	}
	if len(tb.Rows) != 2*len(c.Sizes) {
		t.Fatalf("model rows: %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		got := strings.Join(row, " ")
		if want := recorded[row[0]+" "+row[1]]; got != want {
			t.Errorf("model row %q, results/model.txt has %q", got, want)
		}
	}
}

// TestFig5Tables regenerates results/fig5a.txt and fig5b.txt, the
// paper's communication cost of one transaction, at the files' twelve
// sizes with gpbft-sim's settings, and compares them row by row as
// TestModelTable does for model.txt. The costs are sums of canonical
// encodings, so an envelope whose size moved fails here.
func TestFig5Tables(t *testing.T) {
	c := Quick()
	c.Seed = 1
	c.Sizes = []int{4, 22, 40, 58, 76, 94, 112, 130, 148, 166, 184, 202}
	for _, fig := range []struct {
		name string
		run  func(io.Writer) (*CommResults, error)
	}{{"fig5a", c.Fig5a}, {"fig5b", c.Fig5b}} {
		res, err := fig.run(io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile("../../results/" + fig.name + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		recorded := make(map[string]string) // "nodes" -> whole row
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) == 3 {
				if _, err := strconv.Atoi(f[0]); err == nil {
					recorded[f[0]] = strings.Join(f, " ")
				}
			}
		}
		rows := res.Table(fig.name).Rows
		if len(rows) != len(c.Sizes) || len(recorded) != len(c.Sizes) {
			t.Fatalf("%s: %d rows regenerated, %d recorded, want %d", fig.name, len(rows), len(recorded), len(c.Sizes))
		}
		for _, row := range rows {
			if got, want := strings.Join(row, " "), recorded[row[0]]; got != want {
				t.Errorf("%s row %q, results/%s.txt has %q", fig.name, got, fig.name, want)
			}
		}
	}
}

func TestDefaultAndQuickConfigs(t *testing.T) {
	d := Default()
	if d.Sizes[len(d.Sizes)-1] != 202 || d.Runs != 10 {
		t.Fatal("default config must match the paper's sweep")
	}
	q := Quick()
	if len(q.Sizes) >= len(d.Sizes) || q.Runs >= d.Runs {
		t.Fatal("quick config must be smaller")
	}
}
