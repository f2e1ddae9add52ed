package pbft_test

import (
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/simnet"
	"gpbft/internal/types"
)

var epoch = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)

// cluster is a simulated PBFT committee for integration tests.
type cluster struct {
	t       *testing.T
	net     *simnet.Network
	genesis *ledger.Genesis
	com     *consensus.Committee
	nodes   map[gcrypto.Address]*runtime.Node
	engines map[gcrypto.Address]*pbft.Engine
	keys    map[gcrypto.Address]*gcrypto.KeyPair
}

type clusterOpts struct {
	n                  int
	vcTimeout          time.Duration
	checkpointInterval uint64
	batch              int
	simCfg             simnet.Config
}

func defaultOpts(n int) clusterOpts {
	return clusterOpts{
		n:         n,
		vcTimeout: 300 * time.Millisecond,
		batch:     16,
		simCfg: simnet.Config{
			Seed:     1,
			Latency:  simnet.UniformLatency{Base: time.Millisecond, Jitter: 500 * time.Microsecond},
			ProcTime: 100 * time.Microsecond,
			SendTime: 20 * time.Microsecond,
		},
	}
}

func newCluster(t *testing.T, o clusterOpts) *cluster {
	t.Helper()
	g := &ledger.Genesis{ChainID: "pbft-test", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	g.Policy.MaxEndorsers = o.n + 8
	for i := 0; i < o.n; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114.17, Lat: 22.30}, geo.CSCPrecision),
		})
	}
	com, err := consensus.NewCommittee(g.Endorsers)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		t: t, genesis: g, com: com,
		net:     simnet.New(o.simCfg),
		nodes:   make(map[gcrypto.Address]*runtime.Node),
		engines: make(map[gcrypto.Address]*pbft.Engine),
		keys:    make(map[gcrypto.Address]*gcrypto.KeyPair),
	}
	for i := 0; i < o.n; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		chain, err := ledger.NewChain(g)
		if err != nil {
			t.Fatal(err)
		}
		app := runtime.NewApp(chain, runtime.NewMempool(0, nil), kp.Address(), epoch, o.batch)
		eng, err := pbft.New(pbft.Config{
			Era:                0,
			Committee:          com,
			Key:                kp,
			App:                app,
			StartHeight:        1,
			CheckpointInterval: o.checkpointInterval,
			Node:               pbft.NewNodeState(consensus.NewTimerAllocator(), o.vcTimeout),
		})
		if err != nil {
			t.Fatal(err)
		}
		node := &runtime.Node{
			ID: kp.Address(), Key: kp, App: app, Engine: eng,
			Exec: c.net.Executor(kp.Address()),
		}
		c.net.AddNode(kp.Address(), node)
		c.nodes[kp.Address()] = node
		c.engines[kp.Address()] = eng
		c.keys[kp.Address()] = kp
	}
	c.net.Schedule(0, func(now consensus.Time) {
		for _, n := range c.nodes {
			n.Start(now)
		}
	})
	return c
}

// tx builds a client transaction signed by key index 1000+i.
func clientTx(i int, nonce uint64) *types.Transaction {
	tx := &types.Transaction{
		Type:    types.TxNormal,
		Nonce:   nonce,
		Payload: []byte("sensor-reading"),
		Fee:     10,
		Geo: types.GeoInfo{
			Location:  geo.Point{Lng: 114.17, Lat: 22.30},
			Timestamp: epoch.Add(time.Duration(nonce+1) * time.Second),
		},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(1000 + i))
	return tx
}

// submitAt schedules a transaction submission at a node.
func (c *cluster) submitAt(at consensus.Time, to gcrypto.Address, tx *types.Transaction) {
	c.net.Schedule(at, func(now consensus.Time) {
		if err := c.nodes[to].Submit(now, tx); err != nil {
			c.t.Errorf("submit: %v", err)
		}
	})
}

// run drives the simulation until idle or the cap.
func (c *cluster) run(cap consensus.Time) { c.net.RunUntilIdle(cap) }

// aliveHeights asserts every non-crashed node reached at least height
// h, and that all chains agree prefix-wise.
func (c *cluster) checkAgreement(minHeight uint64, skip map[gcrypto.Address]bool) {
	c.t.Helper()
	var ref *runtime.Node
	for _, n := range c.nodes {
		if skip[n.ID] {
			continue
		}
		if n.CommitErr != nil {
			c.t.Fatalf("node %s commit error: %v", n.ID.Short(), n.CommitErr)
		}
		h := n.App.Chain().Height()
		if h < minHeight {
			c.t.Fatalf("node %s at height %d, want >= %d", n.ID.Short(), h, minHeight)
		}
		if ref == nil {
			ref = n
			continue
		}
		limit := h
		if rh := ref.App.Chain().Height(); rh < limit {
			limit = rh
		}
		for i := uint64(0); i <= limit; i++ {
			a, _ := ref.App.Chain().BlockAt(i)
			b, _ := n.App.Chain().BlockAt(i)
			if a.Hash() != b.Hash() {
				c.t.Fatalf("chains disagree at height %d", i)
			}
		}
	}
}

func (c *cluster) primary() gcrypto.Address { return c.com.Primary(0) }

// someBackup returns a non-primary member address.
func (c *cluster) someBackup() gcrypto.Address {
	for _, a := range c.com.Addresses() {
		if a != c.primary() {
			return a
		}
	}
	panic("no backup")
}

func TestHappyPathSingleTx(t *testing.T) {
	c := newCluster(t, defaultOpts(4))
	tx := clientTx(0, 1)
	c.submitAt(10*time.Millisecond, c.primary(), tx)
	c.run(5 * time.Second)
	c.checkAgreement(1, nil)

	// The committed block carries a verifiable quorum certificate.
	for _, n := range c.nodes {
		b, err := n.App.Chain().BlockAt(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Txs) != 1 || b.Txs[0].ID() != tx.ID() {
			t.Fatal("committed block does not contain the transaction")
		}
		if b.Cert == nil {
			t.Fatal("committed block missing certificate")
		}
		if err := b.Cert.Verify(b.Hash(), b.Header.Seq, c.com.Keys(), c.com.Quorum()); err != nil {
			t.Fatalf("certificate: %v", err)
		}
	}
}

func TestSubmitToBackupIsForwarded(t *testing.T) {
	c := newCluster(t, defaultOpts(4))
	c.submitAt(10*time.Millisecond, c.someBackup(), clientTx(0, 1))
	c.run(5 * time.Second)
	c.checkAgreement(1, nil)
}

func TestManyTxsManyBlocks(t *testing.T) {
	o := defaultOpts(4)
	o.batch = 4
	c := newCluster(t, o)
	for i := 0; i < 20; i++ {
		c.submitAt(time.Duration(10+i)*time.Millisecond, c.com.Addresses()[i%4], clientTx(i, uint64(i)))
	}
	c.run(20 * time.Second)
	// 20 txs with batch 4 needs at least 5 blocks.
	c.checkAgreement(5, nil)
	// All 20 distinct txs are on chain exactly once.
	n := c.nodes[c.primary()]
	seen := map[gcrypto.Hash]int{}
	for _, b := range n.App.Chain().Blocks() {
		for i := range b.Txs {
			seen[b.Txs[i].ID()]++
		}
	}
	if len(seen) != 20 {
		t.Fatalf("%d distinct txs committed, want 20", len(seen))
	}
	for id, count := range seen {
		if count != 1 {
			t.Fatalf("tx %s committed %d times", id.Short(), count)
		}
	}
}

func TestToleratesCrashedBackups(t *testing.T) {
	c := newCluster(t, defaultOpts(7)) // f = 2
	skip := map[gcrypto.Address]bool{}
	crashed := 0
	for _, a := range c.com.Addresses() {
		if a != c.primary() && crashed < 2 {
			c.net.Crash(a)
			skip[a] = true
			crashed++
		}
	}
	c.submitAt(10*time.Millisecond, c.primary(), clientTx(0, 1))
	c.run(10 * time.Second)
	c.checkAgreement(1, skip)
}

func TestViewChangeOnCrashedPrimary(t *testing.T) {
	c := newCluster(t, defaultOpts(4))
	prim := c.primary()
	c.net.Crash(prim)
	backup := c.someBackup()
	c.submitAt(10*time.Millisecond, backup, clientTx(0, 1))
	c.run(30 * time.Second)
	skip := map[gcrypto.Address]bool{prim: true}
	c.checkAgreement(1, skip)
	// Survivors moved to a later view.
	for a, e := range c.engines {
		if skip[a] {
			continue
		}
		if e.View() == 0 {
			t.Fatalf("node %s still in view 0 after primary crash", a.Short())
		}
		if e.CompletedViewChanges() == 0 {
			t.Fatalf("node %s completed no view changes", a.Short())
		}
	}
}

func TestViewChangePreservesPreparedValue(t *testing.T) {
	// Crash the primary right after the proposal goes out: backups may
	// have prepared the value; after the view change the SAME block (or
	// none) must commit — never a conflicting one.
	o := defaultOpts(4)
	c := newCluster(t, o)
	prim := c.primary()
	tx := clientTx(0, 1)
	c.submitAt(10*time.Millisecond, prim, tx)
	// Crash the primary 3ms after submission: the pre-prepare has
	// typically been sent, prepares are in flight.
	c.net.Schedule(13*time.Millisecond, func(consensus.Time) { c.net.Crash(prim) })
	c.run(30 * time.Second)
	skip := map[gcrypto.Address]bool{prim: true}
	c.checkAgreement(0, skip)
	// If a block committed at height 1, it must contain the tx.
	for a, n := range c.nodes {
		if skip[a] {
			continue
		}
		if n.App.Chain().Height() >= 1 {
			b, _ := n.App.Chain().BlockAt(1)
			if len(b.Txs) != 1 || b.Txs[0].ID() != tx.ID() {
				t.Fatal("post-view-change block lost the prepared transaction")
			}
		}
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	o := defaultOpts(4)
	o.checkpointInterval = 4
	o.batch = 1
	c := newCluster(t, o)
	for i := 0; i < 12; i++ {
		c.submitAt(time.Duration(10+i*5)*time.Millisecond, c.primary(), clientTx(i, uint64(i)))
	}
	c.run(30 * time.Second)
	c.checkAgreement(12, nil)
	for a, e := range c.engines {
		if e.LowWater() < 4 {
			t.Fatalf("node %s low water %d, checkpoint GC never ran", a.Short(), e.LowWater())
		}
	}
}

func TestEquivocatingPrimaryIsSafe(t *testing.T) {
	// A Byzantine primary sends two different pre-prepares for the same
	// (view, seq) to disjoint halves. Safety: no two honest nodes may
	// commit different blocks at height 1.
	o := defaultOpts(4)
	c := newCluster(t, o)
	prim := c.primary()
	primKey := c.keys[prim]
	// Silence the real primary so only our forged proposals exist.
	c.net.Crash(prim)

	backups := []gcrypto.Address{}
	for _, a := range c.com.Addresses() {
		if a != prim {
			backups = append(backups, a)
		}
	}
	mkBlock := func(tx *types.Transaction) *types.Block {
		chain, _ := ledger.NewChain(c.genesis)
		return types.NewBlock(types.BlockHeader{
			Height: 1, Era: 0, View: 0, Seq: 1,
			PrevHash:  chain.Head().Hash(),
			Proposer:  prim,
			Timestamp: epoch.Add(time.Second),
		}, []types.Transaction{*tx})
	}
	b1 := mkBlock(clientTx(0, 1))
	b2 := mkBlock(clientTx(1, 2))
	pp1 := consensus.Seal(primKey, pbft.NewPrePrepare(0, 0, 1, b1))
	pp2 := consensus.Seal(primKey, pbft.NewPrePrepare(0, 0, 1, b2))
	pp1.Sender = uint64(c.com.IndexOf(prim))
	pp2.Sender = pp1.Sender

	c.net.Schedule(10*time.Millisecond, func(now consensus.Time) {
		// Every backup pools both transactions; two get proposal 1, one
		// gets proposal 2.
		for _, a := range backups {
			for _, b := range []*types.Block{b1, b2} {
				if err := c.nodes[a].App.SubmitTx(&b.Txs[0]); err != nil {
					t.Error(err)
				}
			}
		}
		c.nodes[backups[0]].Deliver(now, pp1)
		c.nodes[backups[1]].Deliver(now, pp1)
		c.nodes[backups[2]].Deliver(now, pp2)
	})
	c.run(30 * time.Second)

	// Safety check: no conflicting committed blocks.
	var committed []*types.Block
	for _, a := range backups {
		n := c.nodes[a]
		if n.CommitErr != nil {
			t.Fatalf("commit error: %v", n.CommitErr)
		}
		if n.App.Chain().Height() >= 1 {
			b, _ := n.App.Chain().BlockAt(1)
			committed = append(committed, b)
		}
	}
	for i := 1; i < len(committed); i++ {
		if committed[i].Hash() != committed[0].Hash() {
			t.Fatal("SAFETY VIOLATION: conflicting blocks committed at height 1")
		}
	}
}

func TestLargeCommitteeCommits(t *testing.T) {
	if testing.Short() {
		t.Skip("large committee in -short mode")
	}
	o := defaultOpts(25) // f = 8
	c := newCluster(t, o)
	c.submitAt(10*time.Millisecond, c.primary(), clientTx(0, 1))
	c.run(20 * time.Second)
	c.checkAgreement(1, nil)
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := pbft.New(pbft.Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
	// Self not in committee.
	g := &ledger.Genesis{ChainID: "x", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	for i := 0; i < 4; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{Address: kp.Address(), PubKey: kp.Public()})
	}
	com, _ := consensus.NewCommittee(g.Endorsers)
	chain, _ := ledger.NewChain(g)
	outsider := gcrypto.DeterministicKeyPair(99)
	app := runtime.NewApp(chain, runtime.NewMempool(0, nil), outsider.Address(), epoch, 0)
	if _, err := pbft.New(pbft.Config{Committee: com, Key: outsider, App: app, StartHeight: 1}); err == nil {
		t.Fatal("outsider key must be rejected")
	}
}

func TestHaltStopsEngine(t *testing.T) {
	c := newCluster(t, defaultOpts(4))
	for _, e := range c.engines {
		e.Halt()
		if !e.Halted() {
			t.Fatal("Halted() false after Halt()")
		}
	}
	c.submitAt(10*time.Millisecond, c.primary(), clientTx(0, 1))
	c.run(5 * time.Second)
	for _, n := range c.nodes {
		if n.App.Chain().Height() != 0 {
			t.Fatal("halted engines must not commit")
		}
	}
}

// TestRequestDuringViewChangeCommitsUnderNewPrimary closes the strand a
// view change used to leave: a transaction submitted to a backup while
// it is between views is pooled without a relay, so only that backup
// knows it. On entering the new view the backup relays it once, and the
// new primary — not the holder, many views later — proposes it.
func TestRequestDuringViewChangeCommitsUnderNewPrimary(t *testing.T) {
	o := defaultOpts(4)
	// No jitter: a new primary's first pre-prepare that overtakes its
	// NewView is dropped by a backup still between views, and the view
	// changes again; with three of four replicas alive every such loss
	// costs a view. Links that keep order keep this test about requests.
	o.simCfg.Latency = simnet.UniformLatency{Base: time.Millisecond}
	c := newCluster(t, o)
	prim := c.primary()
	c.net.Crash(prim)
	// The holder is neither the crashed primary nor view 1's primary.
	var holder gcrypto.Address
	for _, a := range c.com.Addresses() {
		if a != prim && a != c.com.Primary(1) {
			holder = a
		}
	}
	first, stranded := clientTx(0, 1), clientTx(1, 2)
	c.submitAt(10*time.Millisecond, holder, first)
	for c.net.Now() < 10*time.Second && !c.engines[holder].InViewChange() {
		c.net.Run(c.net.Now() + time.Millisecond)
	}
	if err := c.nodes[holder].Submit(c.net.Now(), stranded); err != nil {
		t.Fatal(err)
	}
	if !c.engines[holder].InViewChange() {
		t.Fatal("setup: the holder left the view change before the submission")
	}
	c.run(30 * time.Second)

	for a, n := range c.nodes {
		if a == prim {
			continue
		}
		for _, tx := range []*types.Transaction{first, stranded} {
			if _, ok := n.App.Chain().FindTx(tx.ID()); !ok {
				t.Fatalf("node %s never committed a transaction submitted during the view change", a.Short())
			}
		}
		if v := c.engines[a].View(); v != 1 {
			t.Fatalf("node %s ended in view %d: the transaction waited for more than the one view change", a.Short(), v)
		}
	}
	if held, rerelayed := c.engines[holder].Held().Counts(); held != 1 || rerelayed != 1 {
		t.Fatalf("holder held %d requests and re-relayed %d, want 1 and 1", held, rerelayed)
	}
}

// arrivalTap shows a test each envelope as it arrives at a node.
type arrivalTap struct {
	*runtime.Node
	arrived func(env *consensus.Envelope)
}

func (a arrivalTap) HandleMessage(now consensus.Time, env *consensus.Envelope) {
	a.arrived(env)
	a.Node.HandleMessage(now, env)
}

// TestProposalOvertakingNewViewIsHeld: the new primary sends its NewView
// and then its first pre-prepare. On a link where a larger message
// travels longer, the small pre-prepare arrives first, at backups still
// between views. Dropped there, it cost another view change every time
// (this cluster went 1 → 2 → 3 → 5 → 6 on jitter alone); held for the
// NewView that is right behind it, the request commits in view 1.
func TestProposalOvertakingNewViewIsHeld(t *testing.T) {
	o := defaultOpts(4)
	// 100 kB/s and no jitter: a NewView carrying 2f+1 view-change
	// envelopes takes milliseconds longer than a one-transaction
	// pre-prepare, every time.
	o.simCfg.Latency = simnet.UniformLatency{Base: time.Millisecond, BytesPerSec: 100e3}
	c := newCluster(t, o)
	prim, next := c.primary(), c.com.Primary(1)
	var holder gcrypto.Address
	overtaken := 0 // backups reached by view 1's first pre-prepare before its NewView
	for a, n := range c.nodes {
		if a == prim || a == next {
			continue
		}
		holder = a
		inView := false
		c.net.AddNode(a, arrivalTap{n, func(env *consensus.Envelope) {
			if env.From != next {
				return
			}
			switch env.MsgKind {
			case consensus.KindNewView:
				inView = true
			case consensus.KindPrePrepare:
				if !inView {
					overtaken++
				}
			}
		}})
	}
	c.net.Crash(prim)
	tx := clientTx(0, 1)
	c.submitAt(10*time.Millisecond, holder, tx)
	c.run(30 * time.Second)

	if overtaken != 2 {
		t.Fatalf("setup: the pre-prepare overtook its NewView at %d backups, want both", overtaken)
	}
	for a, n := range c.nodes {
		if a == prim {
			continue
		}
		if _, ok := n.App.Chain().FindTx(tx.ID()); !ok {
			t.Fatalf("node %s never committed the transaction", a.Short())
		}
		if v := c.engines[a].View(); v != 1 {
			t.Fatalf("node %s ended in view %d: the overtaken proposal cost further view changes", a.Short(), v)
		}
	}
}
