// Package assemble builds a node. The simulated cluster and its shard
// anchors, the chaos harness, gpbft-node and the transport tests all
// build theirs with Node, and add only their executor or transport,
// commit observers, fault wrappers and metrics.
package assemble

import (
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// Config is what a node is built from. A nil sub-config leaves its
// part out: no QoS lanes, no admission, no relay.
type Config struct {
	Genesis *ledger.Genesis
	Key     *gcrypto.KeyPair
	// Index is the node's position in the deployment and Seed the
	// deployment's seed; together they give the node's relay its own
	// target-selection seed.
	Index int
	Seed  int64
	// Engine carries the engine knobs; Chain, Key and App are filled in
	// here, and WAL, Recovered and Snapshots from Durable. Classic PBFT
	// is a genesis whose era rule freezes the committee
	// (ledger.ErasFrozen), which then rotates in address order.
	Engine core.Config
	// Durable is the node's durable state (nil = in memory only): the
	// chain is restored from it, the engine votes through its WAL, and
	// the node persists every commit to it.
	Durable *store.Dir
	// ShardPrefix pins the chain to one geo-shard region ("" = none).
	ShardPrefix string
	// Batch is the block size a round aims at (0 = default). Ceiling is
	// the most a block carries under backlog: 0 means 4 × Batch, and
	// Ceiling = Batch turns adaptive sizing off.
	Batch, Ceiling int
	// MempoolCap bounds the pool (0 = runtime.DefaultMempoolCap).
	MempoolCap int
	// QoS, when set, gives the pool priority lanes.
	QoS *runtime.QoSConfig
	// Admission, when set, guards the pool with the rate limiter and
	// the shed controller.
	Admission *runtime.AdmissionConfig
	// Relay, when set, replaces direct broadcast with the gossip relay;
	// Self, Peers and Seed are filled in here.
	Relay *consensus.RelayConfig
}

// Built is an assembled node with the parts its caller observes, and
// how its chain was restored (the zero Boot without a durable state).
type Built struct {
	Node *runtime.Node
	Core *core.Engine
	store.Boot
}

// relaySeedStride spreads the nodes' relay seeds apart (2⁶⁴/φ):
// identical seeds would make every node gossip to the same subset.
const relaySeedStride = 0x9e3779b97f4a7c15

// Node builds one node, in this order: the chain from the newest
// snapshot and the block tail, the pool, the application with its
// ceiling, the engine, admission, the relay and the era-bump snapshot
// hook. The node is not started.
func Node(cfg Config) (*Built, error) {
	e := cfg.Engine
	out := &Built{}
	var chain *ledger.Chain
	var err error
	if d := cfg.Durable; d != nil {
		boot, err := d.Restore(cfg.Genesis)
		if err != nil {
			return nil, err
		}
		chain, out.Boot = boot.Chain, *boot
		e.WAL, e.Recovered, e.Snapshots = d.WAL(), d.Recovered(), d.Snapshots()
	} else if chain, err = ledger.NewChain(cfg.Genesis); err != nil {
		return nil, err
	}
	if cfg.ShardPrefix != "" {
		// After replay: the prefix only validates new transactions, and
		// the replayed blocks are the node's own.
		chain.SetShardPrefix(cfg.ShardPrefix)
	}

	pool := runtime.NewMempool(cfg.MempoolCap, cfg.QoS)
	app := runtime.NewApp(chain, pool, cfg.Key.Address(), e.Epoch, cfg.Batch)
	if cfg.Ceiling == 0 {
		// Adaptive block sizing: a deep backlog packs fuller blocks
		// instead of queueing more rounds.
		cfg.Ceiling = 4 * app.BaseBatch()
	}
	app.SetMaxBatch(cfg.Ceiling)

	e.Chain, e.Key, e.App = chain, cfg.Key, app
	engine, err := core.New(e)
	if err != nil {
		return nil, err
	}
	out.Core = engine
	node := &runtime.Node{ID: cfg.Key.Address(), Key: cfg.Key, App: app, Engine: engine, Durable: cfg.Durable}

	if cfg.Admission != nil {
		adm := runtime.NewAdmission(*cfg.Admission)
		adm.BindPool(pool)
		adm.BindInFlight(engine.InFlight)
		node.Admission = adm
	}

	if cfg.Relay != nil {
		// Candidates relay too: they broadcast requests at the committee.
		// Peers start as the genesis committee; era switches retarget.
		rc := *cfg.Relay
		rc.Self = cfg.Key.Address()
		rc.Peers = make([]gcrypto.Address, len(cfg.Genesis.Endorsers))
		for k := range cfg.Genesis.Endorsers {
			rc.Peers[k] = cfg.Genesis.Endorsers[k].Address
		}
		rc.Seed = cfg.Seed ^ int64(uint64(cfg.Index+1)*relaySeedStride)
		node.Relay = consensus.NewRelay(rc)
	}

	if e.Snapshots != nil {
		// Every era bump publishes a signed snapshot of the chain state
		// at the era's boundary block itself, so all nodes snapshot the same
		// (height, root) pair: fast sync's quorum anchors trust in it.
		// Installed after replay, so a restart rewrites none of its past.
		key := cfg.Key
		chain.SetEraBumpHook(func(st *ledger.ChainState) {
			if st.Height() != 0 {
				cfg.Durable.Publish(store.NewSnapshot(st, key))
			}
		})
	}
	out.Node = node
	return out, nil
}

// DevicePosition is where gpbft-node i stands: every node of a
// deployment derives the same positions from the index alone.
func DevicePosition(i int) geo.Point {
	return geo.Point{Lng: 114.175 + float64(i)*0.0004, Lat: 22.302 + float64(i%7)*0.0005}
}

// DeploymentGenesis is the genesis gpbft-node derives from its flags,
// and gpbft-inspect from the same ones: the first committee nodes by
// deterministic key at DevicePosition, eras elected under gpbft and
// frozen under pbft.
func DeploymentGenesis(chainID, protocol string, committee int, eraPeriod, swPeriod, report time.Duration) *ledger.Genesis {
	g := &ledger.Genesis{ChainID: chainID, Timestamp: time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC), Policy: ledger.DefaultPolicy()}
	g.Policy.EraPeriod = eraPeriod
	g.Policy.SwitchPeriod = swPeriod
	g.Policy.ReportInterval = report
	g.Policy.QualificationWindow = 3 * eraPeriod
	g.Policy.MaxEndorsers = max(g.Policy.MaxEndorsers, committee)
	if protocol == "gpbft" {
		g.Policy.Eras = ledger.ErasElect
	}
	for i := 0; i < committee; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(DevicePosition(i), geo.CSCPrecision),
		})
	}
	return g
}
