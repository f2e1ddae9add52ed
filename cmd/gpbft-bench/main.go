// Command gpbft-bench drives a G-PBFT cluster at a fixed offered load
// and records committed TPS and commit latency into the repo's
// benchmark trajectory files (BENCH_tps.json, BENCH_latency.json).
//
// Default run (no flags): the full suite — a deterministic simnet run
// at committee 22 plus wall-clock TCP runs with the pipelined and the
// one-slot scheduler — merged into the trajectory files.
//
//	gpbft-bench                         # full suite, update BENCH_*.json
//	gpbft-bench -quick                  # small deterministic sim run only
//	gpbft-bench -quick -check           # compare against baseline, no writes
//	gpbft-bench -mode tcp -committee 22 # one explicit run
//
// The CI bench gate runs `gpbft-bench -quick -check -out <dir>`: fresh
// results are written under -out and compared against the checked-in
// baseline with -tolerance; any regression exits non-zero.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"gpbft/internal/loadgen"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "small deterministic sim run (the CI gate workload)")
		attack    = flag.Bool("attack", false, "deterministic sim run under attacker flood with the overload armor on")
		attackers = flag.Int("attackers", 3, "flooder identities for -attack")
		rateLimit = flag.Float64("rate-limit", 0, "per-identity admission rate in tx/s (0 = armor off; -attack defaults to honest per-node share x2)")
		mode      = flag.String("mode", "", "run one explicit mode: sim | tcp (default: full suite)")
		committee = flag.Int("committee", 22, "endorser committee size")
		rate      = flag.Int("rate", 200, "offered load, transactions per second")
		duration  = flag.Duration("duration", 5*time.Second, "load window")
		batch     = flag.Int("batch", 32, "max transactions per block")
		shards    = flag.Int("shards", 0, "mempool shard count (0 = default)")
		poolCap   = flag.Int("pool-cap", 0, "mempool capacity (0 = default)")
		workers   = flag.Int("workers", 0, "verification pool width (0 = all cores)")
		inflight  = flag.Int("max-inflight", 0, "consensus pipelining depth (0 = engine default, 1 = one-slot ablation)")
		gossip    = flag.Bool("gossip", false, "epidemic relay dissemination instead of direct all-to-all broadcast")
		fanout    = flag.Int("fanout", 0, "relay fanout for -gossip (0 = auto, ~log2 n)")
		sweep     = flag.Bool("sweep", false, "gossip committee-size sweep (n = 22, 46, 64, 100) with scalability gates")
		shardRun  = flag.Bool("shard", false, "geo-shard scaling suite (1, 2, 4 regions at the same total offered load) with speedup gates")
		seed      = flag.Int64("seed", 1, "simulation seed")
		name      = flag.String("name", "", "entry name (default: derived from mode/committee/path)")
		outDir    = flag.String("out", ".", "directory for fresh BENCH_*.json")
		baseDir   = flag.String("baseline", ".", "directory holding checked-in BENCH_*.json")
		check     = flag.Bool("check", false, "compare fresh results against the baseline; exit 1 on regression")
		tolerance = flag.Float64("tolerance", 0.2, "relative regression tolerance for -check")
	)
	flag.Parse()

	var runs []plannedRun
	switch {
	case *sweep:
		runs = planSweepRuns(*fanout, *seed)
	case *shardRun:
		runs = planShardRuns(*seed)
	default:
		runs = planRuns(*quick, *mode, *committee, *rate, *duration, *batch, *shards, *poolCap,
			*workers, *inflight, *gossip, *fanout, *seed, *name)
	}
	if *attack {
		runs = append(runs, planAttackRun(*attackers, *rateLimit, *seed, *name))
	}

	var results []loadgen.Result
	for _, r := range runs {
		fmt.Fprintf(os.Stderr, "running %s (%s, committee %d, %d tx/s for %s)...\n",
			r.name, r.cfg.Mode, r.cfg.Committee, r.cfg.Rate, r.cfg.Duration)
		res, err := loadgen.Run(r.name, r.cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpbft-bench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(res)
		results = append(results, res)
	}

	if *sweep {
		if err := checkSweepGates(results); err != nil {
			fmt.Fprintf(os.Stderr, "gpbft-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *shardRun {
		if err := checkShardGates(results); err != nil {
			fmt.Fprintf(os.Stderr, "gpbft-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := writeAndCheck(results, *outDir, *baseDir, *check, *tolerance); err != nil {
		fmt.Fprintf(os.Stderr, "gpbft-bench: %v\n", err)
		os.Exit(1)
	}
}

type plannedRun struct {
	name string
	cfg  loadgen.Config
}

// planRuns expands the flag set into the run list.
func planRuns(quick bool, mode string, committee, rate int, duration time.Duration,
	batch, shards, poolCap, workers, inflight int, gossip bool, fanout int,
	seed int64, name string) []plannedRun {
	base := loadgen.Config{
		Committee:     committee,
		Rate:          rate,
		Duration:      duration,
		BatchSize:     batch,
		MempoolShards: shards,
		MempoolCap:    poolCap,
		Workers:       workers,
		MaxInFlight:   inflight,
		Gossip:        gossip,
		GossipFanout:  fanout,
		Seed:          seed,
	}
	if quick {
		// The CI gate: small, fast, and — because it runs on the
		// virtual-time simulator — deterministic for a given seed.
		cfg := base
		cfg.Mode = "sim"
		cfg.Committee = 7
		cfg.Rate = 400
		cfg.Duration = 2 * time.Second
		n := name
		if n == "" {
			n = "sim-quick-c7"
			if gossip {
				// Never clobber the pinned direct-path gate entry.
				n += "-gossip"
			}
		}
		return []plannedRun{{name: n, cfg: cfg}}
	}
	if mode != "" {
		cfg := base
		cfg.Mode = mode
		n := name
		if n == "" {
			n = fmt.Sprintf("%s-c%d", mode, committee)
			if inflight == 1 {
				n += "-inflight1"
			}
			if gossip {
				n += "-gossip"
			}
		}
		return []plannedRun{{name: n, cfg: cfg}}
	}
	// Full suite: deterministic sim trajectory plus the wall-clock run at
	// the paper's committee scale, and the pipelining ablation (one slot
	// in flight) that isolates the scheduler's contribution.
	sim := base
	sim.Mode = "sim"
	par := base
	par.Mode = "tcp"
	one := base
	one.Mode = "tcp"
	one.MaxInFlight = 1
	return []plannedRun{
		{name: fmt.Sprintf("sim-c%d", committee), cfg: sim},
		{name: fmt.Sprintf("tcp-c%d-parallel", committee), cfg: par},
		{name: fmt.Sprintf("tcp-c%d-inflight1", committee), cfg: one},
	}
}

// sweepCommittees are the gossip sweep sizes: the paper's deployment
// scale (22), roughly double it, a size the direct all-to-all path was
// never asked to carry, and the n=100 point that pins the epidemic
// message-complexity bound well past the paper's scale.
var sweepCommittees = []int{22, 46, 64, 100}

// shardRegionCounts are the geo-shard suite sizes: the anchored
// single-region baseline and the 2x / 4x parallel deployments, all at
// the same total offered load.
var shardRegionCounts = []int{1, 2, 4}

// planShardRuns is the geo-shard scaling suite: the same total offered
// load (far beyond one committee's saturation point) spread over 1, 2
// and 4 region committees of 7 nodes each, every deployment anchored
// by the top-level checkpoint committee. The multi-region runs also
// push cross-region transfers through the receipt path so the entries
// exercise — and the gate asserts — the exactly-once guarantee.
func planShardRuns(seed int64) []plannedRun {
	var runs []plannedRun
	for _, r := range shardRegionCounts {
		cfg := loadgen.Config{
			Mode:      "sim",
			Committee: 7,
			Rate:      4000,
			Duration:  2 * time.Second,
			Seed:      seed,
			Regions:   r,
		}
		if r > 1 {
			cfg.Transfers = 8 * r
		}
		runs = append(runs, plannedRun{name: fmt.Sprintf("sim-shard-r%d", r), cfg: cfg})
	}
	return runs
}

// checkShardGates enforces the hierarchy's scaling claims:
//
//  1. parallelism pays — 4 regions commit at least 3x the aggregate
//     TPS of the anchored single-region baseline at the same total
//     offered load;
//  2. the anchor layer stays off the hot path — the 4-region honest
//     commit p50 stays within 1.5x of the baseline's;
//  3. cross-region transfers are exactly-once — every submitted
//     transfer was applied at its destination (the ledger itself
//     refuses double-credits, so applied == submitted is the whole
//     invariant).
func checkShardGates(results []loadgen.Result) error {
	byRegions := make(map[int]loadgen.Result)
	for _, r := range results {
		if r.Regions > 0 {
			byRegions[r.Regions] = r
		}
	}
	base, okB := byRegions[1]
	big, okG := byRegions[shardRegionCounts[len(shardRegionCounts)-1]]
	if !okB || !okG {
		return fmt.Errorf("shard gate: missing shard results (have %d)", len(byRegions))
	}
	if big.TPS < 3*base.TPS {
		return fmt.Errorf("shard gate: r%d aggregate TPS %.1f below 3x single-region baseline %.1f",
			big.Regions, big.TPS, base.TPS)
	}
	if big.P50Ms > 1.5*base.P50Ms {
		return fmt.Errorf("shard gate: r%d p50 %.1fms exceeds 1.5x baseline %.1fms",
			big.Regions, big.P50Ms, base.P50Ms)
	}
	for _, r := range results {
		if r.Regions > 1 && r.TransfersApplied != r.Transfers {
			return fmt.Errorf("shard gate: r%d applied %d of %d cross-region transfers",
				r.Regions, r.TransfersApplied, r.Transfers)
		}
	}
	fmt.Fprintf(os.Stderr, "shard gates passed: r%d/r1 TPS ratio %.2f, p50 %.0fms vs %.0fms, transfers exactly-once\n",
		big.Regions, big.TPS/base.TPS, big.P50Ms, base.P50Ms)
	return nil
}

// planSweepRuns is the gossip committee-size sweep: the same offered
// load over growing committees on the deterministic simulator, with
// the epidemic relay on, plus direct-broadcast contrast runs at the
// larger sizes. The offered rate sits below every committee's
// saturation point — the sweep asks whether an IoT-scale service
// level survives committee growth, not how raw capacity falls (per-
// slot vote volume is O(n) either way, so capacity at saturation
// inherently drops as the committee grows). The recorded entries pin
// the scalability trajectory; checkSweepGates asserts its shape.
func planSweepRuns(fanout int, seed int64) []plannedRun {
	base := loadgen.Config{
		Mode:     "sim",
		Rate:     40,
		Duration: 5 * time.Second,
		Seed:     seed,
	}
	var runs []plannedRun
	for _, n := range sweepCommittees {
		cfg := base
		cfg.Committee = n
		cfg.Gossip = true
		cfg.GossipFanout = fanout
		runs = append(runs, plannedRun{name: fmt.Sprintf("sim-gossip-c%d", n), cfg: cfg})
	}
	// Direct-broadcast contrast at the sizes where n² dissemination
	// hurts: same load, relay off. These pin the latency gap the relay
	// buys (the commit path waits on the slowest of 2f+1 votes, and
	// direct broadcast queues n² frames in front of them).
	for _, n := range sweepCommittees[1:] {
		cfg := base
		cfg.Committee = n
		runs = append(runs, plannedRun{name: fmt.Sprintf("sim-direct-c%d", n), cfg: cfg})
	}
	return runs
}

// checkSweepGates enforces the sweep's scalability claims:
//
//  1. throughput holds up as the committee doubles — committed TPS at
//     n=46 stays within 0.8x of the n=22 figure;
//  2. message complexity stays epidemic, not quadratic — per-node relay
//     frames per committed slot at the largest committee stay within
//     4·f·log₂(n);
//  3. the relay earns its keep at the largest committee — gossip commit
//     p50 beats the direct-broadcast p50 at the same size and load.
//     (TPS is not gated gossip-vs-direct: below saturation both commit
//     everything offered and the figures land within noise of each
//     other; latency is where the n² queueing shows.)
func checkSweepGates(results []loadgen.Result) error {
	byCommittee := make(map[int]loadgen.Result)
	direct := make(map[int]loadgen.Result)
	for _, r := range results {
		if r.Gossip {
			byCommittee[r.Committee] = r
		} else {
			direct[r.Committee] = r
		}
	}
	small, okS := byCommittee[22]
	mid, okM := byCommittee[46]
	big, okB := byCommittee[sweepCommittees[len(sweepCommittees)-1]]
	if !okS || !okM || !okB {
		return fmt.Errorf("sweep gate: missing sweep results (have %d)", len(byCommittee))
	}
	if mid.TPS < 0.8*small.TPS {
		return fmt.Errorf("sweep gate: TPS collapsed with committee growth: c46 %.1f < 0.8 x c22 %.1f",
			mid.TPS, small.TPS)
	}
	bound := 4 * float64(big.RelayFanout) * math.Log2(float64(big.Committee))
	if big.FramesPerSlot > bound {
		return fmt.Errorf("sweep gate: c%d relay frames per node per slot %.1f exceeds 4·f·log2(n) = %.1f",
			big.Committee, big.FramesPerSlot, bound)
	}
	if d, ok := direct[big.Committee]; ok && big.P50Ms >= d.P50Ms {
		return fmt.Errorf("sweep gate: gossip stopped paying at c%d: p50 %.0fms >= direct %.0fms",
			big.Committee, big.P50Ms, d.P50Ms)
	}
	fmt.Fprintf(os.Stderr, "sweep gates passed: c46/c22 TPS ratio %.2f, c%d frames/node/slot %.1f (bound %.1f), p50 %.0fms vs direct %.0fms\n",
		mid.TPS/small.TPS, big.Committee, big.FramesPerSlot, bound, big.P50Ms, direct[big.Committee].P50Ms)
	return nil
}

// planAttackRun is the attack-load scenario: the quick-gate workload
// with flooder identities riding alongside and the overload armor on.
// The recorded TPS/latency are honest-only (attack traffic never
// starts the latency clock), so the entry answers "what do honest
// clients see while the committee is under flood?".
func planAttackRun(attackers int, rateLimit float64, seed int64, name string) plannedRun {
	cfg := loadgen.Config{
		Mode:      "sim",
		Committee: 7,
		// Honest load sits inside the cluster's committed-TPS capacity
		// (the quick gate saturates ~200 tps at this committee): the
		// entry then isolates what the FLOOD does to honest service,
		// not what overload does.
		Rate:         120,
		Duration:     2 * time.Second,
		Seed:         seed,
		Attackers:    attackers,
		AttackFactor: 5,
		RateLimit:    rateLimit,
	}
	if cfg.RateLimit <= 0 {
		// Default armor setting: 1.5x one honest node's share, so
		// honest traffic always fits and flooders lose their overflow.
		cfg.RateLimit = 1.5 * float64(cfg.Rate) / float64(cfg.Committee)
	}
	n := name
	if n == "" {
		n = "sim-attack-c7"
	} else {
		n += "-attack"
	}
	return plannedRun{name: n, cfg: cfg}
}

// writeAndCheck merges results into the trajectory files under outDir
// and, when checking, compares them against the baseline directory.
func writeAndCheck(results []loadgen.Result, outDir, baseDir string, check bool, tolerance float64) error {
	outTPS := filepath.Join(outDir, "BENCH_tps.json")
	outLat := filepath.Join(outDir, "BENCH_latency.json")
	baseTPS := filepath.Join(baseDir, "BENCH_tps.json")
	baseLat := filepath.Join(baseDir, "BENCH_latency.json")

	// Fresh reports start from the out-dir contents (merge-on-write) so
	// repeated runs accumulate entries rather than clobbering them.
	tps, err := loadgen.LoadReport(outTPS, loadgen.MetricTPS)
	if err != nil {
		return err
	}
	lat, err := loadgen.LoadReport(outLat, loadgen.MetricLatency)
	if err != nil {
		return err
	}
	for _, r := range results {
		tps.Upsert(r.TPSEntry())
		lat.Upsert(r.LatencyEntry())
	}
	if err := tps.Save(outTPS); err != nil {
		return err
	}
	if err := lat.Save(outLat); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s and %s\n", outTPS, outLat)

	if !check {
		return nil
	}
	baseT, err := loadgen.LoadReport(baseTPS, loadgen.MetricTPS)
	if err != nil {
		return err
	}
	baseL, err := loadgen.LoadReport(baseLat, loadgen.MetricLatency)
	if err != nil {
		return err
	}
	regressions := append(loadgen.Compare(baseT, tps, tolerance), loadgen.Compare(baseL, lat, tolerance)...)
	for _, msg := range regressions {
		fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", msg)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark regression(s) beyond ±%.0f%% tolerance", len(regressions), tolerance*100)
	}
	fmt.Fprintln(os.Stderr, "bench gate passed: no regressions against baseline")
	return nil
}
