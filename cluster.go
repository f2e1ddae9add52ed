package gpbft

import (
	"errors"
	"fmt"
	"math"
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

// Cluster is a simulated IoT-blockchain deployment: Nodes full nodes
// laid out on a grid inside the deployment region, running either
// classic PBFT (all nodes in the consensus group) or G-PBFT (an
// endorser committee capped by policy; remaining nodes are candidate
// devices that submit transactions through the committee).
type Cluster struct {
	opts    Options
	net     *simnet.Network
	genesis *ledger.Genesis

	nodes     []*runtime.Node
	keys      []*gcrypto.KeyPair
	positions []geo.Point
	coreEng   []*core.Engine
	dirs      []*store.Dir // per-node durable state on a MemFS (nil unless Options.Snapshots)

	metrics *Metrics
	nonces  []uint64
}

// NewCluster builds and starts (at virtual time 0) a cluster.
func NewCluster(opts Options) (*Cluster, error) {
	return newClusterOn(opts, clusterSite{})
}

// clusterSite places a cluster on shared infrastructure. The zero value
// means "stand-alone": own simulator, own metrics, default chain ID,
// keys from index 0 — exactly the historical NewCluster behaviour. The
// geo-sharded hierarchy passes one shared network and metrics recorder
// plus a per-region chain ID and key base so several region committees
// coexist on a single event loop without address collisions.
type clusterSite struct {
	net     *simnet.Network
	metrics *Metrics
	chainID string
	keyBase int
	// shardPrefix, when non-empty, pins every node's chain to one
	// region: transfer locks must source here, applies must be destined
	// here. Set identically on all of a region's nodes.
	shardPrefix string
	// positions, when set, places the nodes instead of the grid: the
	// anchor committee's delegates live in their home regions.
	positions []geo.Point
	// fixedBatch turns adaptive block sizing off (Ceiling = Batch), as
	// the anchor committee runs.
	fixedBatch bool
}

// newClusterOn builds and starts (at virtual time 0) a cluster on the
// given site.
func newClusterOn(opts Options, site clusterSite) (*Cluster, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if site.metrics == nil {
		site.metrics = NewMetrics()
	}
	if site.chainID == "" {
		site.chainID = fmt.Sprintf("gpbft-sim-%d", opts.Seed)
	}
	c := &Cluster{
		opts:    opts,
		metrics: site.metrics,
		nonces:  make([]uint64, opts.Nodes),
	}
	c.net = site.net
	if c.net == nil {
		c.net = opts.network()
	}

	// Grid layout: every node gets a distinct CSC cell in the region.
	c.positions = site.positions
	if c.positions == nil {
		c.positions = opts.Region.Grid(opts.Nodes)
	}
	c.keys = make([]*gcrypto.KeyPair, opts.Nodes)
	for i := range c.keys {
		c.keys[i] = gcrypto.DeterministicKeyPair(site.keyBase + i)
	}

	// Genesis committee: the core nodes of Section III-C.
	committeeSize := opts.committeeSize()
	g := &ledger.Genesis{
		ChainID:   site.chainID,
		Timestamp: opts.Epoch,
		Policy:    opts.policy(),
	}
	for i := 0; i < committeeSize; i++ {
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

	c.nodes = make([]*runtime.Node, opts.Nodes)
	c.coreEng = make([]*core.Engine, opts.Nodes)
	c.dirs = make([]*store.Dir, opts.Nodes)

	if opts.Protocol != PBFT && opts.Protocol != GPBFT {
		return nil, errors.New("gpbft: unknown protocol")
	}
	// Classic PBFT is the era layer with the genesis committee frozen
	// (Options.eraRule), whose rotation is the genesis order: address
	// order. Address order in every era is the proposer ablation.
	pp := core.ProposerGeoTimer
	if !opts.GeoTimerProposer {
		pp = core.ProposerAddress
	}
	for i := 0; i < opts.Nodes; i++ {
		kp := c.keys[i]
		cfg := assemble.Config{
			Genesis: g,
			Key:     kp,
			Index:   site.keyBase + i,
			Seed:    opts.Seed,
			Engine: core.Config{
				Epoch:             opts.Epoch,
				ViewChangeTimeout: opts.ViewChangeTimeout,
				ProposerPolicy:    pp,
			},
			ShardPrefix: site.shardPrefix,
			Batch:       opts.BatchSize,
		}
		if site.fixedBatch {
			cfg.Ceiling = opts.BatchSize
		}
		if opts.RateLimit > 0 {
			cfg.QoS = &runtime.QoSConfig{}
			cfg.Admission = &runtime.AdmissionConfig{Rate: opts.RateLimit}
		}
		if opts.Gossip {
			cfg.Relay = &consensus.RelayConfig{}
		}
		if opts.Snapshots && opts.Protocol == GPBFT {
			d, err := store.OpenDir(store.NewMemFS(), "node", store.DirOptions{Retain: store.DefaultRetainSnapshots})
			if err != nil {
				return nil, err
			}
			cfg.Durable, c.dirs[i] = d, d
		}
		built, err := assemble.Node(cfg)
		if err != nil {
			return nil, err
		}
		c.coreEng[i] = built.Core
		node := built.Node
		node.Exec = c.net.Executor(kp.Address())
		node.OnCommit = c.metrics.ObserveCommit
		node.Engine = byzantine.Wrap(opts.Byzantine[i], node.Engine, kp)
		if i == 0 {
			node.OnEraSwitch = func(consensus.Time, uint64, []gcrypto.Address) {
				c.metrics.ObserveEraSwitch()
			}
		}
		c.net.AddNode(kp.Address(), node)
		c.nodes[i] = node
	}
	c.net.Schedule(0, func(now consensus.Time) {
		for _, n := range c.nodes {
			n.Start(now)
		}
	})
	return c, nil
}

// --- accessors ---

// Options returns the cluster configuration.
func (c *Cluster) Options() Options { return c.opts }

// Net exposes the simulator (fault injection, scheduling).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Metrics returns the latency recorder.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Traffic returns the network byte/message meter.
func (c *Cluster) Traffic() *simnet.Traffic { return c.net.Traffic() }

// NodeCount returns the number of full nodes.
func (c *Cluster) NodeCount() int { return len(c.nodes) }

// Node returns full node i (advanced use).
func (c *Cluster) Node(i int) *runtime.Node { return c.nodes[i] }

// CoreEngine returns node i's engine. Under PBFT it runs one era
// that never ends; Inner is the PBFT instance of that era.
func (c *Cluster) CoreEngine(i int) *core.Engine { return c.coreEng[i] }

// NodeCounters returns node i's runtime event counters (envelopes
// delivered, timers fired, blocks committed) — the same snapshot a TCP
// deployment exports through gpbft-node's -metrics-addr endpoint.
func (c *Cluster) NodeCounters(i int) runtime.CounterSnapshot { return c.nodes[i].Counters() }

// SyncStats returns node i's block-sync and snapshot fast-sync
// counters.
func (c *Cluster) SyncStats(i int) runtime.SyncStats { return c.coreEng[i].SyncStats() }

// SnapshotCount returns how many era snapshots node i currently
// retains (0 when Options.Snapshots is off).
func (c *Cluster) SnapshotCount(i int) int {
	if c.dirs[i] == nil {
		return 0
	}
	return c.dirs[i].Snapshots().Len()
}

// Address returns node i's chain address.
func (c *Cluster) Address(i int) gcrypto.Address { return c.keys[i].Address() }

// Position returns node i's deployed location.
func (c *Cluster) Position(i int) geo.Point { return c.positions[i] }

// CommitteeSize returns the size of the initial consensus group.
func (c *Cluster) CommitteeSize() int { return c.opts.committeeSize() }

// Genesis returns the chain's founding configuration.
func (c *Cluster) Genesis() *ledger.Genesis { return c.genesis }

// --- driving the simulation ---

// Run processes events up to the given virtual time.
func (c *Cluster) Run(until time.Duration) { c.net.Run(until) }

// RunUntilIdle processes events until quiescence or the cap.
func (c *Cluster) RunUntilIdle(cap time.Duration) { c.net.RunUntilIdle(cap) }

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.net.Now() }

// NewNodeTx builds a data transaction authored by node i at its
// deployed position, timestamped at the given virtual time.
func (c *Cluster) NewNodeTx(i int, at time.Duration, payload []byte, fee uint64) *types.Transaction {
	return c.NewTypedNodeTx(i, at, types.TxNormal, payload, fee)
}

// NewTypedNodeTx builds a transaction of an arbitrary type authored by
// node i at its deployed position — the entry point for cross-region
// transfer locks and other typed payloads.
func (c *Cluster) NewTypedNodeTx(i int, at time.Duration, typ types.TxType, payload []byte, fee uint64) *types.Transaction {
	c.nonces[i]++
	tx := &types.Transaction{
		Type:    typ,
		Nonce:   c.nonces[i],
		Payload: payload,
		Fee:     fee,
		Geo: types.GeoInfo{
			Location:  c.positions[i],
			Timestamp: c.opts.Epoch.Add(at),
		},
	}
	tx.Sign(c.keys[i])
	return tx
}

// SubmitTx schedules tx submission through node `via` at virtual time
// `at`, starting the latency clock.
func (c *Cluster) SubmitTx(at time.Duration, via int, tx *types.Transaction) {
	id := tx.ID()
	c.net.Schedule(at, func(now consensus.Time) {
		c.metrics.RecordSubmit(id, now)
		_ = c.nodes[via].Submit(now, tx)
	})
}

// SubmitNodeTx is the common case: node i submits its own data
// transaction at virtual time `at`.
func (c *Cluster) SubmitNodeTx(at time.Duration, i int, payload []byte, fee uint64) *types.Transaction {
	tx := c.NewNodeTx(i, at, payload, fee)
	c.SubmitTx(at, i, tx)
	return tx
}

// ScheduleReports makes node i submit `count` location reports every
// `interval`, starting at `start` — the periodic uploads that feed the
// election table. Reports do not start the latency clock.
func (c *Cluster) ScheduleReports(i int, start, interval time.Duration, count int) {
	for k := 0; k < count; k++ {
		at := start + time.Duration(k)*interval
		c.net.Schedule(at, func(now consensus.Time) {
			c.nonces[i]++
			tx := &types.Transaction{
				Type:  types.TxLocationReport,
				Nonce: c.nonces[i],
				Geo: types.GeoInfo{
					Location:  c.positions[i],
					Timestamp: c.opts.Epoch.Add(now),
				},
			}
			tx.Sign(c.keys[i])
			_ = c.nodes[i].Submit(now, tx)
		})
	}
}

// SubmitWitness schedules node `witness` to attest (or dispute) that
// `subject` is physically present at the geohash cell. Witness
// statements feed the election's supervision check when
// Options.MinWitnesses is set.
func (c *Cluster) SubmitWitness(at time.Duration, witness int, subject gcrypto.Address, cell string, seen bool) {
	c.net.Schedule(at, func(now consensus.Time) {
		c.nonces[witness]++
		tx := &types.Transaction{
			Type:  types.TxWitness,
			Nonce: c.nonces[witness],
			Payload: types.EncodeWitnessStatement(&types.WitnessStatement{
				Subject: subject,
				Geohash: cell,
				Seen:    seen,
			}),
			Geo: types.GeoInfo{
				Location:  c.positions[witness],
				Timestamp: c.opts.Epoch.Add(now),
			},
		}
		tx.Sign(c.keys[witness])
		_ = c.nodes[witness].Submit(now, tx)
	})
}

// VerifyAgreement checks that all node chains agree on every height
// they share and that no node hit a commit error; it returns the
// minimum committed height.
func (c *Cluster) VerifyAgreement() (uint64, error) {
	minH := uint64(math.MaxUint64)
	ref := c.nodes[0].App.Chain()
	for i, n := range c.nodes {
		if n.CommitErr != nil {
			return 0, fmt.Errorf("node %d commit error: %w", i, n.CommitErr)
		}
		chain := n.App.Chain()
		minH = min(minH, chain.Height())
		for k := uint64(0); k <= min(chain.Height(), ref.Height()); k++ {
			a, err := ref.BlockAt(k)
			if err != nil {
				return 0, err
			}
			b, err := chain.BlockAt(k)
			if err != nil {
				return 0, err
			}
			if a.Hash() != b.Hash() {
				return 0, fmt.Errorf("node %d disagrees with node 0 at height %d", i, k)
			}
		}
	}
	return minH, nil
}

// MaxHeight returns the highest committed height across nodes.
func (c *Cluster) MaxHeight() uint64 {
	var max uint64
	for _, n := range c.nodes {
		if h := n.App.Chain().Height(); h > max {
			max = h
		}
	}
	return max
}
