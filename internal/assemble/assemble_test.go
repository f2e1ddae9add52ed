package assemble_test

import (
	"errors"
	"testing"
	"time"

	"gpbft/internal/assemble"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/simnet"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

var epoch = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)

// committee returns a 4-member genesis and its keys in committee
// order, so keys[i] is the member at position i.
func committee(t *testing.T, chainID string) (*ledger.Genesis, []*gcrypto.KeyPair) {
	t.Helper()
	g := &ledger.Genesis{ChainID: chainID, Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	byAddr := make(map[gcrypto.Address]*gcrypto.KeyPair)
	for i := 0; i < 4; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		byAddr[kp.Address()] = kp
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114.17 + 0.01*float64(i), Lat: 22.3}, geo.CSCPrecision),
		})
	}
	com, err := consensus.NewCommittee(g.Endorsers)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]*gcrypto.KeyPair, 4)
	for i := range keys {
		keys[i] = byAddr[com.Member(i).Address]
	}
	return g, keys
}

// clientTx is a data transaction from a client identity outside the
// committee.
func clientTx(k int) *types.Transaction {
	tx := &types.Transaction{
		Type: types.TxNormal, Nonce: 1, Payload: []byte{byte(k)}, Fee: 1,
		Geo: types.GeoInfo{Location: geo.Point{Lng: 115 + float64(k), Lat: 22.3}, Timestamp: epoch.Add(time.Second)},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(1000 + k))
	return tx
}

func hasPrepare(acts []consensus.Action) bool {
	for _, a := range acts {
		if b, ok := a.(consensus.Broadcast); ok && b.Env.MsgKind == consensus.KindPrepare {
			return true
		}
	}
	return false
}

// TestBaselineReassembledFromWALKeepsItsVotes: a PBFT backup prepares
// view 0's proposal at height 1, then is built again from nothing but
// its vote WAL — the gpbft-node -protocol pbft -data restart. Offered a
// different block at the same slot it stays silent, and the original
// proposal still gets its prepare. The same restart without the WAL
// prepares the conflicting block: the check tells the two apart.
func TestBaselineReassembledFromWALKeepsItsVotes(t *testing.T) {
	g, keys := committee(t, "assemble-pbft")
	const primary, self = 0, 1
	proposal := func(tx *types.Transaction) (*types.Block, *consensus.Envelope) {
		chain, err := ledger.NewChain(g)
		if err != nil {
			t.Fatal(err)
		}
		b := types.NewBlock(types.BlockHeader{
			Height: 1, Seq: 1, PrevHash: chain.Head().Hash(),
			Proposer: keys[primary].Address(), Timestamp: epoch.Add(time.Second),
		}, []types.Transaction{*tx})
		env := consensus.Seal(keys[primary], pbft.NewPrePrepare(0, 0, 1, b))
		env.Sender = primary
		return b, env
	}
	tx1, tx2 := clientTx(1), clientTx(2)
	b1, pp1 := proposal(tx1)
	b2, pp2 := proposal(tx2)
	if b1.Hash() == b2.Hash() {
		t.Fatal("test blocks must differ")
	}
	boot := func(wal *store.MemWAL) *assemble.Built {
		cfg := assemble.Config{
			Genesis: g, Key: keys[self],
			Engine: core.Config{
				Epoch: epoch, ViewChangeTimeout: time.Second,
				DisableEraSwitch: true,
			},
			Batch: 8,
		}
		if wal != nil {
			cfg.Engine.WAL, cfg.Engine.Recovered = wal, wal.Records()
		}
		b, err := assemble.Node(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.Core.Init(0)
		for _, tx := range []*types.Transaction{tx1, tx2} {
			if err := b.Node.App.SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}

	wal := &store.MemWAL{}
	if !hasPrepare(boot(wal).Core.OnEnvelope(0, pp1)) {
		t.Fatal("the first proposal must be prepared")
	}
	again := boot(wal)
	if hasPrepare(again.Core.OnEnvelope(0, pp2)) {
		t.Fatal("the reassembled backup prepared a conflicting proposal")
	}
	if !hasPrepare(again.Core.OnEnvelope(0, pp1)) {
		t.Fatal("the reassembled backup must still support its original vote")
	}
	if !hasPrepare(boot(nil).Core.OnEnvelope(0, pp2)) {
		t.Fatal("without its WAL a restarted backup prepares anything; the check above proves nothing")
	}
}

// commitBlocks runs a 4-member G-PBFT committee assembled here on the
// simulator, one client transaction every 100 ms through node 0, and
// returns node 0's committed blocks in height order.
func commitBlocks(t *testing.T, g *ledger.Genesis, keys []*gcrypto.KeyPair, txs int) []*types.Block {
	t.Helper()
	net := simnet.New(simnet.Config{Seed: 1, Latency: simnet.UniformLatency{Base: time.Millisecond}})
	var nodes []*runtime.Node
	var blocks []*types.Block
	for i, kp := range keys {
		b, err := assemble.Node(assemble.Config{
			Genesis: g, Key: kp, Index: i, Seed: 1,
			Engine: core.Config{Epoch: epoch, DisableEraSwitch: true},
			Batch:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Node.Exec = net.Executor(kp.Address())
		net.AddNode(kp.Address(), b.Node)
		nodes = append(nodes, b.Node)
	}
	nodes[0].OnCommit = func(_ consensus.Time, blk *types.Block) { blocks = append(blocks, blk) }
	net.Schedule(0, func(now consensus.Time) {
		for _, n := range nodes {
			n.Start(now)
		}
	})
	for k := 0; k < txs; k++ {
		tx := clientTx(k)
		net.Schedule(consensus.Time(k+1)*consensus.Time(100*time.Millisecond), func(now consensus.Time) {
			if err := nodes[0].Submit(now, tx); err != nil {
				t.Error(err)
			}
		})
	}
	net.RunUntilIdle(consensus.Time(30 * time.Second))
	if len(blocks) != txs {
		t.Fatalf("committed %d blocks, want %d", len(blocks), txs)
	}
	return blocks
}

// snapshotAt signs the state of g's chain after blocks[:height] as kp.
func snapshotAt(t *testing.T, g *ledger.Genesis, blocks []*types.Block, height int, kp *gcrypto.KeyPair) *store.Snapshot {
	t.Helper()
	chain, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[:height] {
		if err := chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	return store.NewSnapshot(chain.ExportState(), kp)
}

// reboot assembles member 0 again from a snapshot store holding snap
// and the whole block log.
func reboot(t *testing.T, g *ledger.Genesis, kp *gcrypto.KeyPair, snap *store.Snapshot, blocks []*types.Block) *assemble.Built {
	t.Helper()
	snaps := store.NewMemSnapshots(2)
	if err := snaps.Add(snap); err != nil {
		t.Fatal(err)
	}
	b, err := assemble.Node(assemble.Config{
		Genesis: g, Key: kp,
		Engine: core.Config{Epoch: epoch, DisableEraSwitch: true, Snapshots: snaps},
		Blocks: blocks,
		Batch:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBootFromSnapshotAndTail: a G-PBFT node with a snapshot at height
// 3 and a block log to height 8 boots at height 8, replaying only the
// five blocks above the snapshot.
func TestBootFromSnapshotAndTail(t *testing.T) {
	g, keys := committee(t, "assemble-snap")
	blocks := commitBlocks(t, g, keys, 8)
	b := reboot(t, g, keys[0], snapshotAt(t, g, blocks, 3, keys[0]), blocks)
	if b.Restored == nil || b.Restored.Height() != 3 || b.Refused != nil {
		t.Fatalf("restored %v, refused %v: want the height-3 snapshot", b.Restored, b.Refused)
	}
	if b.Replayed != 5 {
		t.Fatalf("replayed %d blocks, want the 5 above the snapshot", b.Replayed)
	}
	chain := b.Node.App.Chain()
	if chain.Height() != 8 || chain.Head().Hash() != blocks[7].Hash() {
		t.Fatalf("booted at height %d, want the tail's head 8", chain.Height())
	}
}

// TestRefusedSnapshotFallsBackToFullReplay: a snapshot the chain
// refuses — here one of another genesis — is reported and skipped, and
// the node boots by replaying its whole block log.
func TestRefusedSnapshotFallsBackToFullReplay(t *testing.T) {
	g, keys := committee(t, "assemble-snap")
	blocks := commitBlocks(t, g, keys, 8)
	other, _ := committee(t, "assemble-other")
	b := reboot(t, g, keys[0], snapshotAt(t, other, nil, 0, keys[0]), blocks)
	if b.Restored != nil || !errors.Is(b.Refused, ledger.ErrStateGenesis) {
		t.Fatalf("restored %v, refused %v: want the foreign snapshot refused", b.Restored, b.Refused)
	}
	if b.Replayed != 8 || b.Node.App.Chain().Height() != 8 {
		t.Fatalf("replayed %d blocks to height %d, want all 8", b.Replayed, b.Node.App.Chain().Height())
	}
}
