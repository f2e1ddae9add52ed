package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"gpbft/internal/assemble"
	"gpbft/internal/byzantine"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/runtime"
	"gpbft/internal/simnet"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// Options configures a chaos cluster.
type Options struct {
	// Nodes is the committee size; 4..16.
	Nodes int
	// Seed drives both the network simulator and the fault schedule;
	// the same seed reproduces the same run bit for bit.
	Seed int64
	// DropRate is the background message-loss probability during the
	// fault phase ("drop" faults). Recovery runs on a clean network.
	DropRate float64
	// EnableEraSwitch runs forced era switches underneath the chaos,
	// exercising WAL rotation and era rejoin.
	EnableEraSwitch bool
	// Faults assigns adversarial behaviour to node indices, one fault
	// per node; the wrapper survives the node's restarts. A
	// byzantine.FaultDoubleVote node double-signs every prepare and
	// commit vote and is exempted from the trace equivocation invariant:
	// the property under test becomes that the honest majority stays
	// safe and convicts it. A byzantine.FaultSnapshotLie node serves
	// bit-flipped snapshot bytes while behaving honestly otherwise: its
	// receivers must reject every lie and fall back to block replay with
	// no forked or partial state. Keep the faulty count within
	// f = ⌊(n−1)/3⌋ unless the schedule says otherwise.
	Faults map[int]byzantine.Fault
	// DisableExpulsion sets the genesis ablation knob: committed
	// evidence still accumulates, but offenders are never removed from
	// (or refused entry to) the committee.
	DisableExpulsion bool
	// Snapshots gives every node a durable snapshot store keeping the
	// newest store.DefaultRetainSnapshots: era boundaries write signed
	// state snapshots, restarts boot from the newest valid one, and deep
	// catch-up goes snapshot-then-tail.
	Snapshots bool
	// FastSyncThreshold overrides the engine's snapshot-vs-tail gap
	// threshold (0 = engine default). Keep it small in chaos runs so
	// modest growth exercises the snapshot path.
	FastSyncThreshold uint64
	// Compact truncates each node's durable block log (and in-memory
	// chain) below its oldest retained snapshot at every era boundary,
	// making deep rejoin IMPOSSIBLE via block replay — peers redirect
	// block pulls from compacted ranges to the snapshot path.
	Compact bool
	// EraPeriod is the genesis policy's era switch interval T, which
	// the engine's forced switches and the election's authentication
	// window both read (0 = 1 s).
	EraPeriod time.Duration
	// RateLimit turns on the overload armor on every node: per-identity
	// token-bucket admission at this sustained tx/s, a QoS-lane mempool
	// and the graceful-degradation shed controller. 0 keeps the pool to
	// one lane and the submit path unguarded — the ablation baseline.
	RateLimit float64
	// MempoolCap bounds each node's pool when QoS is on (0 = default).
	MempoolCap int
	// BatchSize is the per-block transaction batch (0 = 1, the chaos
	// default; flood schedules raise it so sustained load can drain).
	BatchSize int
	// FairShare passes through to the mempool's lanes (0 = default).
	FairShare int
	// Gossip replaces direct all-to-all broadcast with the epidemic
	// relay on every node: fanout-f forwarding with round-scoped
	// duplicate suppression. Faults then hit a sparser, redundant
	// dissemination graph instead of n² direct links.
	Gossip bool
	// GossipFanout overrides the relay fanout (0 = auto, ~log₂ n).
	GossipFanout int
}

// stepInterval is the virtual time between schedule operations.
const stepInterval = 200 * time.Millisecond

// Every node's durable storage, what survives a crash, is its slot: an
// in-memory file system holding the node's durable directory (the vote
// WAL, the block log and, with Options.Snapshots, the retained era
// snapshots) at slotPath. Everything else — mempool, vote tables,
// timers, sockets — dies with the process and is rebuilt from it on
// restart. slotPath is where the directory lies in the slot.
const slotPath = "node"

// Cluster is a simulated committee under fault injection. All nodes
// are genesis endorsers; each has a durable slot it reboots from.
type Cluster struct {
	opts    Options
	epoch   time.Time
	net     *simnet.Network
	rng     *rand.Rand
	genesis *ledger.Genesis

	keys      []*gcrypto.KeyPair
	positions []geo.Point

	slots    []*store.MemFS
	logs     []logView // CheckInvariants' reads of the block logs
	nodes    []*runtime.Node
	engines  []*core.Engine
	crashed  []bool
	high     []uint64 // committed-height high-water per node
	nonces   []uint64
	replayed []uint64 // cumulative blocks replayed at boot, per node
	parts    map[[2]int]bool
	checker  *Checker
	// timeout is every engine's ViewChangeTimeout: New fixes it at
	// 500 ms, and zero lets each replica take it from the rounds it times.
	timeout time.Duration
}

// New builds and starts (at virtual time 0) a chaos cluster.
func New(opts Options) (*Cluster, error) {
	return newCluster(opts, 500*time.Millisecond)
}

// newCluster is New with the engines' view-change timeout.
func newCluster(opts Options, timeout time.Duration) (*Cluster, error) {
	if opts.Nodes < 4 || opts.Nodes > 16 {
		return nil, fmt.Errorf("chaos: Nodes must be in [4,16], got %d", opts.Nodes)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 1
	}
	c := &Cluster{
		opts:     opts,
		epoch:    time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC),
		rng:      rand.New(rand.NewSource(opts.Seed ^ 0x5eed)),
		slots:    make([]*store.MemFS, opts.Nodes),
		logs:     make([]logView, opts.Nodes),
		nodes:    make([]*runtime.Node, opts.Nodes),
		engines:  make([]*core.Engine, opts.Nodes),
		crashed:  make([]bool, opts.Nodes),
		high:     make([]uint64, opts.Nodes),
		nonces:   make([]uint64, opts.Nodes),
		replayed: make([]uint64, opts.Nodes),
		parts:    make(map[[2]int]bool),
		checker:  NewChecker(),
		timeout:  timeout,
	}
	c.net = simnet.New(simnet.Config{
		Seed: opts.Seed,
		Latency: simnet.UniformLatency{
			Base:   time.Millisecond,
			Jitter: 500 * time.Microsecond,
		},
		ProcTime: 100 * time.Microsecond,
		SendTime: 20 * time.Microsecond,
		DropRate: opts.DropRate,
		Tap:      c.checker.Observe,
	})

	// A small urban region, the nodes one CSC cell apart, as in the
	// paper's deployment.
	c.positions = geo.Region{MinLng: 114.170, MinLat: 22.300, MaxLng: 114.180, MaxLat: 22.310}.Grid(opts.Nodes)
	c.keys = make([]*gcrypto.KeyPair, opts.Nodes)
	for i := range c.keys {
		c.keys[i] = gcrypto.DeterministicKeyPair(i)
	}

	g := &ledger.Genesis{
		ChainID:   fmt.Sprintf("gpbft-chaos-%d", opts.Seed),
		Timestamp: c.epoch,
		Policy:    ledger.DefaultPolicy(),
	}
	if opts.Nodes > g.Policy.MaxEndorsers {
		g.Policy.MaxEndorsers = opts.Nodes
	}
	g.Policy.EraPeriod = opts.EraPeriod
	if g.Policy.EraPeriod == 0 {
		g.Policy.EraPeriod = time.Second
	}
	g.Policy.SwitchPeriod = 50 * time.Millisecond
	if opts.EnableEraSwitch {
		g.Policy.Eras = ledger.ErasForced
	}
	g.Policy.DisableExpulsion = opts.DisableExpulsion
	for i := 0; i < opts.Nodes; i++ {
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: c.keys[i].Address(),
			PubKey:  c.keys[i].Public(),
			Geohash: geo.MustEncode(c.positions[i], geo.CSCPrecision),
		})
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	c.genesis = g

	for i, f := range opts.Faults {
		if i < 0 || i >= opts.Nodes {
			return nil, fmt.Errorf("chaos: Faults index %d out of range", i)
		}
		if f == byzantine.FaultDoubleVote {
			c.checker.Allow(c.keys[i].Address())
		}
	}

	for i := 0; i < opts.Nodes; i++ {
		c.slots[i] = store.NewMemFS()
		if err := c.boot(i, false); err != nil {
			return nil, err
		}
		c.net.AddNode(c.keys[i].Address(), c.nodes[i])
	}
	c.net.Schedule(0, func(now consensus.Time) {
		for _, n := range c.nodes {
			n.Start(now)
		}
	})
	return c, nil
}

// boot builds node i's incarnation from its durable slot only, with
// assemble.Node: restore the newest valid snapshot (when snapshots are
// on), replay the block log on top of it, then hand the engine the WAL
// and its recovered records. Blocks below the restore point are
// skipped; a log disconnected from it, as when every local snapshot is
// corrupt but the log was already compacted, is re-anchored empty; the
// engine's sync machinery covers the rest from peers. With amnesia=true the consensus WAL file
// is removed first — the configuration the regression-guard tests prove
// unsafe.
func (c *Cluster) boot(i int, amnesia bool) error {
	if amnesia {
		c.slots[i].Remove(slotPath + ".wal")
	}
	opts := store.DirOptions{Sync: true, Compact: c.opts.Compact}
	if c.opts.Snapshots {
		opts.Retain = store.DefaultRetainSnapshots
	}
	dir, err := store.OpenDir(c.slots[i], slotPath, opts)
	if err != nil {
		return fmt.Errorf("chaos: node %d: %w", i, err)
	}
	kp := c.keys[i]
	cfg := assemble.Config{
		Genesis: c.genesis,
		Key:     kp,
		Index:   i,
		Seed:    c.opts.Seed,
		Engine: core.Config{
			Epoch:              c.epoch,
			CheckpointInterval: 4,
			ViewChangeTimeout:  c.timeout,
			FastSyncThreshold:  c.opts.FastSyncThreshold,
		},
		Durable: dir,
		// Ceiling = Batch: chaos runs without adaptive block sizing.
		Batch:   c.opts.BatchSize,
		Ceiling: c.opts.BatchSize,
	}
	if c.opts.RateLimit > 0 {
		cfg.MempoolCap = c.opts.MempoolCap
		cfg.QoS = &runtime.QoSConfig{FairShare: c.opts.FairShare}
		cfg.Admission = &runtime.AdmissionConfig{Rate: c.opts.RateLimit}
	}
	if c.opts.Gossip {
		// A restart builds a fresh relay: the dupemap dies with the
		// process, and re-delivered duplicates are absorbed by the
		// engine's idempotent vote tables. The seed is per node and
		// stable across incarnations, so reruns stay bit for bit.
		cfg.Relay = &consensus.RelayConfig{Fanout: c.opts.GossipFanout}
	}
	built, err := assemble.Node(cfg)
	if err != nil {
		return fmt.Errorf("chaos: node %d: %w", i, err)
	}
	c.replayed[i] += uint64(built.Replayed)
	eng, node := built.Core, built.Node
	// The wrapper survives restarts: a rebooted adversary comes back
	// just as malicious.
	node.Engine = byzantine.Wrap(c.opts.Faults[i], node.Engine, kp)
	node.Exec = c.net.Executor(kp.Address())
	c.nodes[i] = node
	c.engines[i] = eng
	return nil
}

// --- fault operations ---

// Crash fail-stops node i: it drops all traffic and its pending timers
// die with the process.
func (c *Cluster) Crash(i int) {
	if c.crashed[i] {
		return
	}
	c.net.Crash(c.Address(i))
	c.crashed[i] = true
}

// Restart reboots node i as a fresh incarnation built from its durable
// slot. A running node is killed first (a restart implies a crash).
// With amnesia=true the consensus WAL is discarded too, modeling an
// operator who lost the vote log but kept the block log.
func (c *Cluster) Restart(i int, amnesia bool) error {
	if !c.crashed[i] {
		c.net.Crash(c.Address(i))
		c.crashed[i] = true
	}
	if err := c.boot(i, amnesia); err != nil {
		return err
	}
	c.net.Restart(c.Address(i), c.nodes[i])
	c.crashed[i] = false
	c.nodes[i].Start(c.net.Now())
	return nil
}

// Partition blocks traffic between nodes i and j.
func (c *Cluster) Partition(i, j int) {
	if i == j {
		return
	}
	if j < i {
		i, j = j, i
	}
	c.parts[[2]int{i, j}] = true
	c.net.Partition(c.Address(i), c.Address(j))
}

// HealAll removes every active partition.
func (c *Cluster) HealAll() {
	for p := range c.parts {
		c.net.Heal(c.Address(p[0]), c.Address(p[1]))
		delete(c.parts, p)
	}
}

// Submit injects a signed transaction through node i (must be live).
func (c *Cluster) Submit(i int, payload []byte) {
	if c.crashed[i] {
		return
	}
	c.nonces[i]++
	tx := &types.Transaction{
		Type:    types.TxNormal,
		Nonce:   c.nonces[i],
		Payload: payload,
		Fee:     1,
		Geo: types.GeoInfo{
			Location:  c.positions[i],
			Timestamp: c.epoch.Add(c.net.Now()),
		},
	}
	tx.Sign(c.keys[i])
	_ = c.nodes[i].Submit(c.net.Now(), tx)
}

// SubmitReport injects node i's own periodic location report, feeding
// the election table so the node keeps re-qualifying across era
// switches.
func (c *Cluster) SubmitReport(i int) {
	if c.crashed[i] {
		return
	}
	c.nonces[i]++
	tx := &types.Transaction{
		Type:  types.TxLocationReport,
		Nonce: c.nonces[i],
		Geo: types.GeoInfo{
			Location:  c.positions[i],
			Timestamp: c.epoch.Add(c.net.Now()),
		},
	}
	tx.Sign(c.keys[i])
	_ = c.nodes[i].Submit(c.net.Now(), tx)
}

// SubmitRawTx injects a pre-signed transaction through live node i —
// how external identities (Sybil pairs, spoofers) reach the committee.
func (c *Cluster) SubmitRawTx(i int, tx *types.Transaction) {
	if c.crashed[i] {
		return
	}
	_ = c.nodes[i].Submit(c.net.Now(), tx)
}

// RunFor advances virtual time by d, processing events.
func (c *Cluster) RunFor(d time.Duration) {
	c.net.Run(c.net.Now() + d)
}

// RunUntilIdleFor processes events until quiescence or until d of
// virtual time has elapsed.
func (c *Cluster) RunUntilIdleFor(d time.Duration) {
	c.net.RunUntilIdle(c.net.Now() + d)
}

// --- accessors ---

// Height returns node i's committed chain height.
func (c *Cluster) Height(i int) uint64 { return c.nodes[i].App.Chain().Height() }

// MinHeight returns the lowest committed height across nodes.
func (c *Cluster) MinHeight() uint64 {
	min := c.Height(0)
	for i := 1; i < len(c.nodes); i++ {
		if h := c.Height(i); h < min {
			min = h
		}
	}
	return min
}

// Chain returns node i's ledger (evidence, blacklist, committee state).
func (c *Cluster) Chain(i int) *ledger.Chain { return c.nodes[i].App.Chain() }

// Address returns node i's chain address.
func (c *Cluster) Address(i int) gcrypto.Address { return c.keys[i].Address() }

// Epoch returns the wall-clock anchor of virtual time 0.
func (c *Cluster) Epoch() time.Time { return c.epoch }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.net.Now() }

// Checker exposes the trace equivocation checker.
func (c *Cluster) Checker() *Checker { return c.checker }

// PrimaryIndex returns the node index acting as primary for the given
// view in the current era, in the rotation the chain fixed when the era
// began.
func (c *Cluster) PrimaryIndex(view uint64) int {
	for _, e := range c.engines {
		if com := e.Committee(); com != nil {
			p := com.Primary(view)
			for i := range c.keys {
				if c.Address(i) == p {
					return i
				}
			}
		}
	}
	return -1
}

// --- invariants ---

// CheckInvariants asserts the crash-recovery safety properties, reading
// each node's durable state from its slot:
//
//  1. no double-signed conflicting votes anywhere in the trace;
//  2. no commit errors (a fork detected by a node's own ledger);
//  3. durability lockstep: every committed block was persisted before
//     the commit was acknowledged, so in-memory height always equals
//     durable height;
//  4. no committed-height regression across restarts;
//  5. no fork: all durable block logs agree on every shared height.
func (c *Cluster) CheckInvariants() error {
	if v := c.checker.Violations(); len(v) > 0 {
		return fmt.Errorf("equivocation in trace: %s", v[0])
	}
	tops := make([]uint64, len(c.slots))
	ref := 0
	for i := range c.slots {
		var err error
		if tops[i], err = c.readDurable(i); err != nil {
			return fmt.Errorf("node %d: durable state: %w", i, err)
		}
		if tops[i] > tops[ref] {
			ref = i
		}
	}
	rs := &c.logs[ref]
	for i := range c.slots {
		if err := c.nodes[i].CommitErr; err != nil {
			return fmt.Errorf("node %d commit error: %w", i, err)
		}
		if got := c.Height(i); got != tops[i] {
			return fmt.Errorf("node %d: in-memory height %d != durable height %d", i, got, tops[i])
		}
		if tops[i] < c.high[i] {
			return fmt.Errorf("node %d: committed height regressed %d -> %d", i, c.high[i], tops[i])
		}
		c.high[i] = tops[i]
		// Fork detection over the heights both logs retain; heights
		// the reference has compacted are vouched for by its
		// snapshot (which a quorum had to co-sign off on via heads).
		// The block log refuses a gap, so both logs are contiguous.
		ls := &c.logs[i]
		for k, h := range ls.hashes {
			height := ls.first + uint64(k)
			if height >= rs.first && height < rs.first+uint64(len(rs.hashes)) && h != rs.hashes[height-rs.first] {
				return fmt.Errorf("fork: nodes %d and %d disagree at height %d", i, ref, height)
			}
		}
	}
	return nil
}

// logView is what CheckInvariants last read of one node's block log:
// the file's bytes and the hashes of the blocks they hold, the first at
// height first. The log only grows between compactions, so a read that
// extends the last one decodes the new frames alone: decoding every log
// whole at every check made the chaos suite a fifth slower.
type logView struct {
	raw    []byte
	first  uint64
	hashes []gcrypto.Hash
}

// readDurable reads node i's block log from its slot into c.logs[i]
// and returns the height its durable state reaches: the log's last
// block, or with none logged the newest valid snapshot's height (0
// without one).
func (c *Cluster) readDurable(i int) (uint64, error) {
	raw, err := c.slots[i].ReadFile(slotPath)
	if err != nil {
		return 0, err
	}
	v := &c.logs[i]
	if !bytes.HasPrefix(raw, v.raw) {
		*v = logView{}
	}
	blocks, err := store.DecodeBlockLog(raw[len(v.raw):])
	if err != nil {
		return 0, err
	}
	for _, b := range blocks {
		if len(v.hashes) == 0 {
			v.first = b.Header.Height
		} else if b.Header.Height != v.first+uint64(len(v.hashes)) {
			return 0, fmt.Errorf("block log gap at height %d", b.Header.Height)
		}
		v.hashes = append(v.hashes, b.Hash())
	}
	v.raw = raw
	if len(v.hashes) > 0 {
		return v.first + uint64(len(v.hashes)) - 1, nil
	}
	boot, err := store.LoadDir(c.slots[i], slotPath, c.genesis)
	if err != nil {
		return 0, err
	}
	return boot.Chain.Height(), nil
}

// --- schedules ---

// RunRandomSchedule drives `steps` seeded random fault operations,
// checking invariants after every step, then heals everything and
// verifies the cluster is live and convergent again.
func (c *Cluster) RunRandomSchedule(steps int) error {
	f := (c.opts.Nodes - 1) / 3
	for s := 0; s < steps; s++ {
		c.stepOp(s, f)
		c.RunFor(stepInterval)
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
	}
	return c.FinalRecovery()
}

func (c *Cluster) stepOp(s, f int) {
	switch r := c.rng.Intn(100); {
	case r < 35:
		if i := c.randLive(); i >= 0 {
			c.Submit(i, []byte(fmt.Sprintf("chaos-%d", s)))
		}
	case r < 50:
		if c.crashedCount() < f {
			if i := c.randLive(); i >= 0 {
				c.Crash(i)
			}
		}
	case r < 65:
		if i := c.randCrashed(); i >= 0 {
			_ = c.Restart(i, false)
		}
	case r < 80:
		if len(c.parts) < f {
			i := c.rng.Intn(c.opts.Nodes)
			j := c.rng.Intn(c.opts.Nodes)
			c.Partition(i, j)
		}
	case r < 90:
		// The smallest partition, so the schedule replays from its seed.
		p, none := [2]int{}, true
		for q := range c.parts {
			if none || q[0] < p[0] || q[0] == p[0] && q[1] < p[1] {
				p, none = q, false
			}
		}
		if !none {
			c.net.Heal(c.Address(p[0]), c.Address(p[1]))
			delete(c.parts, p)
		}
	default:
		// Quiet step: let timers fire and views settle.
	}
}

// RunPipelinedSchedule targets the consensus pipelining window: a
// transaction burst deep enough to keep several sequence numbers in
// flight at once (per-block batch is 1 here, so every pending tx is
// its own slot), then a crash and a partition landing mid-window, a
// heal-and-restart, and a second burst. The invariant checks prove the
// split window neither forks nor double-executes: commits stream in
// order on every node, and the rebooted node replays its WAL into a
// window that moved on without it.
func (c *Cluster) RunPipelinedSchedule() error {
	f := (c.opts.Nodes - 1) / 3
	burst := func(tag string, n int) {
		for k := 0; k < n; k++ {
			if i := c.randLive(); i >= 0 {
				c.Submit(i, []byte(fmt.Sprintf("pipe-%s-%d", tag, k)))
			}
		}
	}

	// Fill the window and let a few slots start their phases.
	burst("warm", 12)
	c.RunFor(stepInterval)
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("mid-burst: %w", err)
	}

	// Faults strike mid-window: one backup dies with in-flight slots in
	// its WAL; another is cut off from part of the committee. Stay
	// within f so the rest keep committing through the split window.
	faults := 0
	if faults < f {
		c.Crash(1)
		faults++
	}
	if faults < f {
		c.Partition(2, 0)
		c.Partition(2, 3)
		faults++
	}
	burst("faulted", 12)
	c.RunFor(4 * stepInterval)
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("mid-window faults: %w", err)
	}

	// Heal and reboot: the crashed node recovers prepared-but-unexecuted
	// slots from its WAL and must slot back into the stream without
	// skipping or re-executing anything.
	c.HealAll()
	if err := c.Restart(1, false); err != nil {
		return err
	}
	burst("healed", 12)
	c.RunFor(4 * stepInterval)
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("after heal: %w", err)
	}
	return c.FinalRecovery()
}

func (c *Cluster) crashedCount() int {
	n := 0
	for _, down := range c.crashed {
		if down {
			n++
		}
	}
	return n
}

func (c *Cluster) randLive() int {
	live := make([]int, 0, len(c.crashed))
	for i, down := range c.crashed {
		if !down {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return -1
	}
	return live[c.rng.Intn(len(live))]
}

func (c *Cluster) randCrashed() int {
	down := make([]int, 0, len(c.crashed))
	for i, d := range c.crashed {
		if d {
			down = append(down, i)
		}
	}
	if len(down) == 0 {
		return -1
	}
	return down[c.rng.Intn(len(down))]
}

// FinalRecovery ends the fault phase: it heals every partition, stops
// background drops, reboots every node from durable state (forcing
// each through WAL recovery and block-sync catch-up), then proves
// liveness by committing one more transaction on every node.
func (c *Cluster) FinalRecovery() error {
	c.HealAll()
	c.net.SetDropRate(0)
	for i := range c.nodes {
		if c.crashed[i] {
			if err := c.Restart(i, false); err != nil {
				return err
			}
		}
	}
	c.RunFor(2 * time.Second)
	// Rolling restart: every node must come back from its durable slot
	// and catch up to the head via sync.
	for i := range c.nodes {
		if err := c.Restart(i, false); err != nil {
			return err
		}
		c.RunFor(200 * time.Millisecond)
	}
	c.RunUntilIdleFor(10 * time.Second)
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("after recovery: %w", err)
	}

	// Liveness: every node must advance past the healed baseline. A
	// lagging replica catches up via lag-triggered block sync, which
	// only fires when traffic reveals the gap — so the probe retries
	// with fresh transactions before declaring a node stuck (the
	// parallel verification stack makes batch completion order, and
	// therefore which slot a node trails at when the chain goes idle,
	// scheduler-dependent).
	before := c.MinHeight()
	for attempt := 0; ; attempt++ {
		probe := []byte("liveness-probe")
		if attempt > 0 {
			probe = append(probe, byte(attempt))
		}
		c.Submit(c.liveSubmitter(), probe)
		c.RunUntilIdleFor(30 * time.Second)
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("after liveness probe: %w", err)
		}
		stuck := -1
		for i := range c.nodes {
			if c.Height(i) <= before {
				stuck = i
				break
			}
		}
		if stuck < 0 {
			return nil
		}
		if attempt >= 4 {
			return fmt.Errorf("liveness: node %d stuck at height %d after healing (%d probes never committed)", stuck, c.Height(stuck), attempt+1)
		}
	}
}

// liveSubmitter picks a deterministic live node to submit through.
func (c *Cluster) liveSubmitter() int {
	for i := range c.nodes {
		if !c.crashed[i] {
			return i
		}
	}
	return 0
}
