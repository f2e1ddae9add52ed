// Command bench is the repository's benchmark: six named workloads
// over real TCP nodes and the simulator, measured end to end (untraced)
// and layer by layer (traced). See README.md in this directory.
//
// The driver runs it from the repository root, one workload per call:
//
//	bash bench/run.sh --workload tcp-c7-open --seed 1 --seconds 8 --trace 0
//
// and reads the last line of standard output. Without --workload
// (`go run ./bench -seed 1`) every workload runs untraced and then
// traced, and every metric is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// printed are an untraced run's metrics that carry no bound (see
	// printedOnly); they go on the lines before the result line.
	printed []printedValue
}

type printedValue struct {
	metricDef
	value float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (empty = all, untraced then traced)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 8, "measured window per run, wall seconds (sim-* scale their virtual window from it)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for trace files and temporary stores")
	)
	flag.Parse()
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *outDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	line, err := runOne(w, *seed, *seconds, *trace == 1, *outDir, os.Stderr)
	if err != nil {
		fatal(err)
	}
	for _, p := range line.printed {
		printMetric(w.name, p.metricDef, p.value)
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload once and returns its result line. Notes
// (violations, sample counts, the trace path) go to log.
func runOne(w workload, seed int64, seconds float64, traced bool, outDir string, log *os.File) (*resultLine, error) {
	var tr *tracer
	if traced {
		tr = newTracer(w.nodes)
	}
	scratch := filepath.Join(outDir, "tmp")
	var (
		o   *outcome
		err error
	)
	switch w.kind {
	case tcpOpen, tcpClosed:
		o, err = runTCP(w, seed, seconds, tr, scratch)
	default:
		o, err = runSim(w, seed, seconds, tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for _, v := range o.violations {
		fmt.Fprintf(log, "%s: WRONG OUTPUT: %s\n", w.name, v)
	}
	if o.signedInline > 0 {
		fmt.Fprintf(log, "%s: pre-signed load ran out, %d txs signed inline (raise satProvision)\n", w.name, o.signedInline)
	}
	line := &resultLine{
		Correct:   len(o.violations) == 0 && o.committed > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, values := endToEnd, endToEndValues(o)
	if !traced {
		for _, d := range printedOnly {
			if v, ok := values[d.name]; ok {
				line.printed = append(line.printed, printedValue{d, v})
			}
		}
	} else {
		pass := layerPass(o, tr, seed, scratch)
		defs, values = perLayer, perLayerValues(w, o, tr, pass)
		path, err := tr.write(outDir, w.name, seed, environment())
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%s: trace written to %s\n", w.name, path)
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is not finite", w.name, d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(log, "%s: %d/%d committed, %d blocks\n", w.name, o.attempted-o.failed, o.attempted, o.blocks)
	return line, nil
}

// runAll is the one command that prints every metric by name with its
// unit: every workload untraced, then traced. It exits non-zero if any
// output was wrong.
func runAll(seed int64, seconds float64, outDir string) int {
	env := environment()
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s = %s\n", k, env[k])
	}
	status := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			line, err := runOne(w, seed, seconds, traced, outDir, os.Stdout)
			if err != nil {
				fmt.Println("bench:", err)
				status = 2
				continue
			}
			if !line.Correct {
				status = 1
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			fmt.Printf("%s correct=%v attempted=%d failed=%d\n", w.name, line.Correct, line.Attempted, line.Failed)
			for _, d := range defs {
				printMetric(w.name, d, line.Metrics[d.name].Value)
			}
			for _, p := range line.printed {
				printMetric(w.name, p.metricDef, p.value)
			}
		}
	}
	return status
}

func printMetric(workload string, d metricDef, v float64) {
	fmt.Printf("  %-14s %-40s %s %s\n", workload, d.name, strconv.FormatFloat(v, 'g', 6, 64), d.unit)
}

// environment records what the numbers depend on besides the code.
func environment() map[string]string {
	// Only ask git inside the repository itself: the driver's checkout
	// is not one, and git would otherwise answer for some parent.
	commit := "unknown"
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, ".git")); err != nil {
			continue
		}
		if out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
		break
	}
	return map[string]string{
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"go_version":    runtime.Version(),
		"batch_workers": strconv.Itoa(batchWorkers()),
		"commit":        commit,
	}
}
