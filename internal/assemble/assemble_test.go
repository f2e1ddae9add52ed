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
	boot := func(fsys *store.MemFS) *assemble.Built {
		cfg := assemble.Config{
			Genesis: g, Key: keys[self],
			Engine: core.Config{
				Epoch: epoch, ViewChangeTimeout: time.Second,
				DisableEraSwitch: true,
			},
			Batch: 8,
		}
		if fsys != nil {
			cfg.Durable = openDir(t, fsys, 0)
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

	fsys := store.NewMemFS()
	if !hasPrepare(boot(fsys).Core.OnEnvelope(0, pp1)) {
		t.Fatal("the first proposal must be prepared")
	}
	again := boot(fsys)
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

// openDir opens the durable directory "node" on fsys, keeping retain
// snapshots.
func openDir(t *testing.T, fsys store.FS, retain int) *store.Dir {
	t.Helper()
	d, err := store.OpenDir(fsys, "node", store.DirOptions{Sync: true, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// reboot assembles member 0 again from a durable directory holding snap
// and the whole block log.
func reboot(t *testing.T, g *ledger.Genesis, kp *gcrypto.KeyPair, snap *store.Snapshot, blocks []*types.Block) *assemble.Built {
	t.Helper()
	fsys := store.NewMemFS()
	d := openDir(t, fsys, 2)
	for _, b := range blocks {
		if err := d.Committed(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshots().Add(snap); err != nil {
		t.Fatal(err)
	}
	b, err := assemble.Node(assemble.Config{
		Genesis: g, Key: kp,
		Engine:  core.Config{Epoch: epoch, DisableEraSwitch: true},
		Durable: openDir(t, fsys, 2),
		Batch:   1,
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
	if b.Snapshot == nil || b.Snapshot.Height() != 3 || b.Refused != nil {
		t.Fatalf("restored %v, refused %v: want the height-3 snapshot", b.Snapshot, b.Refused)
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
	if b.Snapshot != nil || !errors.Is(b.Refused, ledger.ErrStateGenesis) {
		t.Fatalf("restored %v, refused %v: want the foreign snapshot refused", b.Snapshot, b.Refused)
	}
	if b.Replayed != 8 || b.Node.App.Chain().Height() != 8 {
		t.Fatalf("replayed %d blocks to height %d, want all 8", b.Replayed, b.Node.App.Chain().Height())
	}
}

// TestNodeHaltsWhenABlockCannotBePersisted pins the rule for a block, or
// a vote, the durable state cannot persist: the node fail-stops. Member
// 3's disk refuses writes to its block log, or to its vote WAL; at its
// first commit, or its first vote, it halts, and from then on sends
// nothing while the other three keep committing. Restarted on the healed
// disk, it catches up to the committee by WAL and block sync.
func TestNodeHaltsWhenABlockCannotBePersisted(t *testing.T) {
	for _, file := range []string{"node", "node.wal"} {
		t.Run(file, func(t *testing.T) { testHaltOnFailedWrite(t, file) })
	}
}

func testHaltOnFailedWrite(t *testing.T, file string) {
	g, keys := committee(t, "assemble-halt")
	const victim = 3
	var nodes [4]*runtime.Node
	sentAfterHalt := 0
	net := simnet.New(simnet.Config{
		Seed: 1, Latency: simnet.UniformLatency{Base: time.Millisecond},
		Tap: func(_ consensus.Time, from, _ simnet.NodeID, _ *consensus.Envelope) {
			if from == keys[victim].Address() && nodes[victim].Halted() != nil {
				sentAfterHalt++
			}
		},
	})
	var disks [4]store.FS
	boot := func(i int) *runtime.Node {
		b, err := assemble.Node(assemble.Config{
			Genesis: g, Key: keys[i], Index: i, Seed: 1,
			Engine:  core.Config{Epoch: epoch, DisableEraSwitch: true},
			Durable: openDir(t, disks[i], 0),
			Batch:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Node.Exec = net.Executor(keys[i].Address())
		return b.Node
	}
	broken := &faultyFS{MemFS: store.NewMemFS(), broken: file}
	for i := range keys {
		disks[i] = store.NewMemFS()
		if i == victim {
			disks[i] = broken
		}
		nodes[i] = boot(i)
		net.AddNode(keys[i].Address(), nodes[i])
	}
	net.Schedule(0, func(now consensus.Time) {
		for _, n := range nodes {
			n.Start(now)
		}
	})
	submit := func(from, count int) {
		for k := from; k < from+count; k++ {
			tx := clientTx(k)
			net.Schedule(net.Now()+consensus.Time(k-from+1)*consensus.Time(100*time.Millisecond), func(now consensus.Time) {
				_ = nodes[0].Submit(now, tx)
			})
		}
	}
	submit(0, 6)
	net.RunUntilIdle(consensus.Time(20 * time.Second))
	if err := nodes[victim].Halted(); !errors.Is(err, errDisk) {
		t.Fatalf("the victim did not halt on its failed write: %v", err)
	}
	if sentAfterHalt != 0 {
		t.Fatalf("the halted victim sent %d envelopes", sentAfterHalt)
	}
	if h := nodes[0].App.Chain().Height(); h != 6 {
		t.Fatalf("the other three committed to height %d, want 6", h)
	}

	broken.broken = ""
	net.Crash(keys[victim].Address())
	nodes[victim] = boot(victim)
	net.Restart(keys[victim].Address(), nodes[victim])
	nodes[victim].Start(net.Now())
	submit(6, 3)
	net.RunUntilIdle(net.Now() + consensus.Time(20*time.Second))
	if err := nodes[victim].Halted(); err != nil {
		t.Fatalf("halted again on the healed disk: %v", err)
	}
	if got, want := nodes[victim].App.Chain().Height(), nodes[0].App.Chain().Height(); got != want || want != 9 {
		t.Fatalf("the restarted victim is at height %d, the committee at %d (want 9)", got, want)
	}
}

var errDisk = errors.New("disk refuses the write")

// faultyFS fails every write to the file named broken.
type faultyFS struct {
	*store.MemFS
	broken string
}

func (f *faultyFS) OpenAppend(name string) (store.File, error) {
	file, err := f.MemFS.OpenAppend(name)
	return faultyFile{file, f, name}, err
}

type faultyFile struct {
	store.File
	fs   *faultyFS
	name string
}

func (f faultyFile) Write(p []byte) (int, error) {
	if f.name == f.fs.broken {
		return 0, errDisk
	}
	return f.File.Write(p)
}
