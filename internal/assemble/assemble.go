// Package assemble builds a node. The simulated cluster and its shard
// anchors, the chaos harness, gpbft-node and the transport tests all
// build theirs with Node, and add only their executor or transport,
// commit observers, persistence, compaction, fault wrappers and metrics.
package assemble

import (
	"fmt"

	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
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
	// Engine carries the engine knobs, the vote WAL with its recovered
	// records, and the snapshot store; Chain, Key and App are filled in
	// here. Classic PBFT is a genesis whose era rule freezes the
	// committee (ledger.ErasFrozen), which then rotates in address order.
	Engine core.Config
	// Blocks is the durable block log, replayed on top of the restored
	// chain. Blocks that do not extend the chain's head are skipped:
	// they lie at or below the snapshot, or above a compacted gap.
	Blocks []*types.Block
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

// Built is an assembled node with the parts its caller observes.
type Built struct {
	Node *runtime.Node
	Core *core.Engine
	// Restored is the snapshot the chain booted from. Refused is why
	// the newest snapshot was not used; the chain then starts from
	// genesis and replays the whole log.
	Restored *store.Snapshot
	Refused  error
	// Replayed counts the blocks replayed from Blocks.
	Replayed int
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
	chain, err := restore(cfg, out)
	if err != nil {
		return nil, err
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
	node := &runtime.Node{ID: cfg.Key.Address(), Key: cfg.Key, App: app, Engine: engine}

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

	if snaps := e.Snapshots; snaps != nil {
		// Every era bump publishes a signed snapshot of the chain state
		// at the era's boundary block itself, so all nodes snapshot the same
		// (height, root) pair: fast sync's quorum anchors trust in it.
		// Installed after replay, so a restart rewrites none of its past.
		key := cfg.Key
		chain.SetEraBumpHook(func(st *ledger.ChainState) {
			if st.Height() == 0 {
				return
			}
			// A failed write loses this snapshot only; the block commits.
			_ = snaps.Add(store.NewSnapshot(st, key))
		})
	}
	out.Node = node
	return out, nil
}

// restore builds the chain from the newest verifiable snapshot, or from
// genesis when there is none or the chain refuses it, and replays the
// block log on top.
func restore(cfg Config, out *Built) (*ledger.Chain, error) {
	var chain *ledger.Chain
	var err error
	if snaps := cfg.Engine.Snapshots; snaps != nil {
		if snap, serr := snaps.Latest(); serr == nil && snap != nil {
			if chain, err = ledger.RestoreChain(cfg.Genesis, snap.State); err != nil {
				out.Refused = fmt.Errorf("snapshot at height %d: %w", snap.Height(), err)
			} else {
				out.Restored = snap
			}
		}
	}
	if chain == nil {
		if chain, err = ledger.NewChain(cfg.Genesis); err != nil {
			return nil, err
		}
	}
	if cfg.ShardPrefix != "" {
		chain.SetShardPrefix(cfg.ShardPrefix)
	}
	for _, b := range cfg.Blocks {
		if b.Header.Height != chain.Height()+1 {
			continue
		}
		if err := chain.AddBlock(b); err != nil {
			return nil, fmt.Errorf("replay block %d: %w", b.Header.Height, err)
		}
		out.Replayed++
	}
	return chain, nil
}
