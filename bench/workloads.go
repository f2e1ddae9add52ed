package main

import "time"

type workloadKind int

const (
	tcpOpen workloadKind = iota
	tcpClosed
	simEras
	simCrash
)

// workload is one named set of inputs. BENCHMARK.json repeats name and
// why; bench_test.go checks the two stay in step.
type workload struct {
	name string
	why  string
	kind workloadKind

	nodes int
	// rate is the offered load of an open loop in tx/s (wall on tcp-*,
	// virtual on sim-*).
	rate int
	// outstanding is the closed loop's in-flight bound.
	outstanding int
	// durable adds a per-node store.WAL and BlockLog with fsync.
	durable bool
	// reps is how many independent simulator runs (sub-seeds of the
	// workload seed) one benchmark run pools. sim-n202-eras needs three:
	// which transactions an era switch strands differs from seed to
	// seed, the driver compares runs made with different seeds, and a
	// longer single run is no substitute (past the 30 s qualification
	// window the deployment behaves differently; README.md has the
	// numbers).
	reps int
}

// simVirtualPerSecond maps --seconds to a simulated load window: at the
// benchmark's run_seconds of 8 every sim workload offers 30 s of
// virtual time, the window the issue and the paper's Table III use.
const simVirtualPerSecond = 3.75

// closedLoopRamp precedes the measured window of a closed loop, so the
// window starts with the pipeline already full.
const closedLoopRamp = time.Second

var workloads = []workload{
	{
		name: "tcp-c7-open", kind: tcpOpen, nodes: 7, rate: 150,
		why: "7 TCP nodes, open loop 150 tx/s: one block per tx, so the per-round path (envelope seal/open, vote verify, engine, framing) dominates and batching does nothing",
	},
	{
		name: "tcp-c7-sat", kind: tcpClosed, nodes: 7, outstanding: 2048,
		why: "same cluster, closed loop up to 2048 outstanding: CPU-saturated with ~32-tx blocks, so the per-tx path (batch verify, mempool, ledger, block codec, Merkle) carries weight",
	},
	{
		name: "tcp-c7-durable", kind: tcpOpen, nodes: 7, rate: 60, durable: true,
		why: "tcp-c7-open's cluster plus a per-node fsynced WAL and block log, open loop 60 tx/s so rounds do not queue on the disk: store on the blocking path, and the price of durability per round",
	},
	{
		name: "tcp-c22-open", kind: tcpOpen, nodes: 22, rate: 100,
		why: "22 TCP nodes (paper committee scale), open loop 100 tx/s: O(n^2) votes per round and ~4 txs per block, so quorum handling and fan-out dominate",
	},
	{
		name: "sim-n202-eras", kind: simEras, nodes: 202, reps: 3,
		why: "paper Table III: 202 devices, 40 endorsers, forced era switch every 10 s, every device proposes every 3 s; the only run crossing era switches, election, geo reports and relay",
	},
	{
		name: "sim-c7-crash", kind: simCrash, nodes: 7, rate: 100, reps: 1,
		why: "7 simulated nodes, open loop 100 tx/s, primary crashed a third of the way in: a fault run with requests on a schedule, so the outage is charged to the txs due in it",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
