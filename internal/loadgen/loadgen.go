// Package loadgen drives a G-PBFT cluster — the deterministic simnet
// or a real in-process TCP deployment — at a fixed offered load and
// measures committed throughput and commit latency. It is the engine
// behind cmd/gpbft-bench and the source of the repo's recorded perf
// trajectory (BENCH_tps.json / BENCH_latency.json).
package loadgen

import (
	"fmt"
	"runtime"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/transport"
	"gpbft/internal/types"
)

// Config describes one load run.
type Config struct {
	// Mode selects the cluster substrate: "sim" (deterministic
	// discrete-event simulator, virtual time) or "tcp" (in-process TCP
	// cluster, wall-clock time).
	Mode string
	// Committee is the endorser committee size (= node count here; the
	// bench exercises the consensus hot path, not candidate gossip).
	Committee int
	// Rate is the offered load in transactions per second.
	Rate int
	// Duration is the load window (virtual in sim mode, wall in tcp).
	Duration time.Duration
	// BatchSize caps transactions per block (0 = 32).
	BatchSize int
	// MempoolShards / MempoolCap configure each node's pool (0 = defaults).
	MempoolShards int
	MempoolCap    int
	// Workers overrides the verification pool width for the run
	// (0 = GOMAXPROCS). Ignored when Serial is set.
	Workers int
	// MaxInFlight is the consensus pipelining depth handed to the
	// engines (0 = engine default; 1 = the serial one-slot ablation).
	MaxInFlight int
	// Serial selects the ablation baseline: serial verification, no
	// signature/envelope memoization, no pipelined pre-verification —
	// the seed's behaviour.
	Serial bool
	// Seed drives deterministic choices (sim mode scheduling, keys).
	Seed int64

	// --- attack load (sim mode only) ---
	// Attackers spawns this many dedicated flooder identities alongside
	// the honest load; each offers AttackFactor times one honest
	// node's share of Rate, pinned to one entry node. Attack traffic
	// never starts the latency clock, so P50/P99/TPS stay honest-only.
	Attackers int
	// AttackFactor is each attacker's rate multiple over a single
	// honest submitter's share (0 = 5).
	AttackFactor int
	// RateLimit enables the per-identity admission armor and QoS lanes
	// on every node (tx/s per identity; 0 = off). An attack run with
	// RateLimit 0 measures the unarmored baseline under flood.
	RateLimit float64

	// --- geo-sharding (sim mode only) ---
	// Regions > 0 selects the geo-sharded hierarchy: that many region
	// committees of Committee nodes each run in parallel on one
	// simulator, anchored by a top-level checkpoint committee, and the
	// offered Rate is spread across the regions. 0 keeps the plain
	// single-cluster path bit-for-bit.
	Regions int
	// ShardPrefixLen is the geohash prefix length of the shard key
	// (0 = shard.DefaultPrefixLen).
	ShardPrefixLen int
	// AnchorPeriod is the region-checkpoint pump interval (0 = default).
	AnchorPeriod time.Duration
	// Transfers injects this many cross-region transfers spread over
	// the load window (needs Regions >= 2). The run fails its gate if
	// any transfer is not applied exactly once at its destination.
	Transfers int

	// Gossip replaces direct all-to-all broadcast with the epidemic
	// relay (fanout-f forwarding, round-scoped duplicate suppression).
	// Off keeps the exact pre-existing dissemination path.
	Gossip bool
	// GossipFanout overrides the relay fanout (0 = auto, ~log₂ n).
	GossipFanout int
	// GossipFlush overrides the relay flush interval (0 = default).
	// Shorter flushes cut per-hop dissemination latency at the cost of
	// more (smaller) relay frames.
	GossipFlush time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Mode == "" {
		out.Mode = "sim"
	}
	if out.Committee <= 0 {
		out.Committee = 4
	}
	if out.Rate <= 0 {
		out.Rate = 200
	}
	if out.Duration <= 0 {
		out.Duration = 5 * time.Second
	}
	if out.BatchSize <= 0 {
		out.BatchSize = 32
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Attackers > 0 && out.AttackFactor <= 0 {
		out.AttackFactor = 5
	}
	// The seed's scheduler was one-slot-at-a-time, so the full serial
	// ablation pins the pipelining depth to 1 alongside the
	// verification knobs (an explicit MaxInFlight still wins).
	if out.Serial && out.MaxInFlight == 0 {
		out.MaxInFlight = 1
	}
	return out
}

// Result is the outcome of one load run.
type Result struct {
	Name      string  `json:"name"`
	Mode      string  `json:"mode"`
	Committee int     `json:"committee"`
	Serial    bool    `json:"serial"`
	Workers   int     `json:"workers"`
	Cores     int     `json:"cores"`
	RateTPS   int     `json:"rate_tps"`
	Offered   int     `json:"offered"`
	Committed int     `json:"committed"`
	Elapsed   float64 `json:"elapsed_s"`
	TPS       float64 `json:"tps"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	// BlocksSynced sums, over a TCP run's nodes, the blocks applied
	// through block sync rather than consensus (zero and omitted on a
	// healthy crash-free run: nobody fell behind, nothing was shipped
	// twice).
	BlocksSynced uint64 `json:"blocks_synced,omitempty"`
	// Attack-run extras (zero and omitted for plain runs): what the
	// flooders offered and how much of it the armor turned away.
	Attackers       int    `json:"attackers,omitempty"`
	AttackerOffered int    `json:"attacker_offered,omitempty"`
	Rejected        uint64 `json:"rejected,omitempty"`
	Shed            uint64 `json:"shed,omitempty"`
	EvictedShed     uint64 `json:"evicted_shed,omitempty"`
	// Shard-run extras (zero and omitted for single-cluster runs): the
	// region count, the anchor committee's committed height, and the
	// cross-region transfer ledger (submitted vs applied — the
	// exactly-once gate compares them).
	Regions          int    `json:"regions,omitempty"`
	AnchorHeight     uint64 `json:"anchor_height,omitempty"`
	Transfers        int    `json:"transfers,omitempty"`
	TransfersApplied int    `json:"transfers_applied,omitempty"`
	// Gossip-run extras (zero and omitted for direct-broadcast runs):
	// the relay counters summed over the committee and the message-
	// complexity measurement the sweep gate asserts against.
	Gossip          bool    `json:"gossip,omitempty"`
	RelayFanout     int     `json:"relay_fanout,omitempty"`
	RelayForwarded  uint64  `json:"relay_forwarded,omitempty"`
	RelaySuppressed uint64  `json:"relay_suppressed,omitempty"`
	RelayDropped    uint64  `json:"relay_dropped,omitempty"`
	Slots           uint64  `json:"slots,omitempty"`
	FramesPerSlot   float64 `json:"frames_per_node_per_slot,omitempty"`
}

func (r Result) String() string {
	mode := "parallel"
	if r.Serial {
		mode = "serial"
	}
	return fmt.Sprintf("%s [%s/%s c=%d cores=%d] offered=%d committed=%d tps=%.1f p50=%.1fms p99=%.1fms",
		r.Name, r.Mode, mode, r.Committee, r.Cores, r.Offered, r.Committed, r.TPS, r.P50Ms, r.P99Ms)
}

// engineMode flips every serial-vs-parallel knob as a set and returns
// a restore function. Serial reproduces the seed's hot path: one-at-a-
// time signature checks on the consensus goroutine with no caching.
func engineMode(serial bool, workers int) (restore func()) {
	if serial {
		workers = 1
	}
	prevW := gcrypto.SetBatchWorkers(workers)
	prevC := types.SetSigCache(!serial)
	prevM := consensus.SetVerifyMemo(!serial)
	prevP := transport.SetPreVerify(!serial)
	prevS := consensus.SetRequestSealCheck(serial)
	return func() {
		gcrypto.SetBatchWorkers(prevW)
		types.SetSigCache(prevC)
		consensus.SetVerifyMemo(prevM)
		transport.SetPreVerify(prevP)
		consensus.SetRequestSealCheck(prevS)
	}
}

// Run executes one load run per the config.
func Run(name string, cfg Config) (Result, error) {
	c := cfg.withDefaults()
	restore := engineMode(c.Serial, c.Workers)
	defer restore()
	// Capture the run's effective parallelism while the engine-mode
	// window is active: BatchWorkers resolves the 0 = GOMAXPROCS default
	// to what the verification pool will actually use, and GOMAXPROCS is
	// what the scheduler grants (not the machine's nominal NumCPU) — so
	// A/B entries in the bench files are distinguishable.
	effWorkers := gcrypto.BatchWorkers()
	effCores := runtime.GOMAXPROCS(0)

	var (
		res Result
		err error
	)
	switch c.Mode {
	case "sim":
		if c.Regions > 0 {
			res, err = runShardSim(c)
		} else {
			res, err = runSim(c)
		}
	case "tcp":
		res, err = runTCP(c)
	default:
		return Result{}, fmt.Errorf("loadgen: unknown mode %q", c.Mode)
	}
	if err != nil {
		return Result{}, err
	}
	res.Name = name
	res.Mode = c.Mode
	res.Committee = c.Committee
	res.Serial = c.Serial
	res.Cores = effCores
	res.Workers = effWorkers
	res.RateTPS = c.Rate
	return res, nil
}
