package core_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"gpbft/internal/assemble"
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

// durableNet is a simulated deployment whose nodes keep a vote WAL and
// a block log, so a node can be restarted from what a process leaves on
// disk. Every node runs the engine's default rotation (the chain's,
// fixed by geographic timer when each era begins), and eras switch on
// every boundary (ledger.ErasForced) every two seconds.
type durableNet struct {
	t       *testing.T
	net     *simnet.Network
	g       *ledger.Genesis
	epoch   time.Time
	keys    []*gcrypto.KeyPair
	pos     []geo.Point
	nodes   []*runtime.Node
	engines []*core.Engine
	disks   []*store.MemFS
	nonces  []uint64
	// votes records, per node, the (era, view) of every prepare and
	// commit it sent and when.
	votes map[gcrypto.Address][]sentVote
}

type sentVote struct {
	at        time.Duration
	era, view uint64
	seq       uint64
}

// newDurableNet builds nodes nodes, the first endorsers of which form
// the genesis committee; the committee may grow to every node. No node
// is started: start does that.
func newDurableNet(t *testing.T, nodes, endorsers int) *durableNet {
	t.Helper()
	d := &durableNet{
		t:       t,
		epoch:   time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC),
		keys:    make([]*gcrypto.KeyPair, nodes),
		pos:     make([]geo.Point, nodes),
		nodes:   make([]*runtime.Node, nodes),
		engines: make([]*core.Engine, nodes),
		disks:   make([]*store.MemFS, nodes),
		nonces:  make([]uint64, nodes),
		votes:   make(map[gcrypto.Address][]sentVote),
	}
	d.net = simnet.New(simnet.Config{
		Seed:     1,
		Latency:  simnet.UniformLatency{Base: time.Millisecond, Jitter: 500 * time.Microsecond},
		ProcTime: 100 * time.Microsecond,
		SendTime: 20 * time.Microsecond,
		Tap: func(now consensus.Time, from, _ simnet.NodeID, env *consensus.Envelope) {
			if env.MsgKind != consensus.KindPrepare && env.MsgKind != consensus.KindCommit {
				return
			}
			if s, ok := consensus.PeekSlot(env); ok {
				d.votes[from] = append(d.votes[from], sentVote{at: now, era: s.Era, view: s.View, seq: s.Seq})
			}
		},
	})
	d.g = &ledger.Genesis{ChainID: "gpbft-era-entry", Timestamp: d.epoch, Policy: ledger.DefaultPolicy()}
	d.g.Policy.Eras = ledger.ErasForced
	d.g.Policy.EraPeriod = 2 * time.Second
	d.g.Policy.SwitchPeriod = 100 * time.Millisecond
	d.g.Policy.QualificationWindow = time.Second
	d.g.Policy.MaxEndorsers = nodes
	for i := range d.keys {
		d.keys[i] = gcrypto.DeterministicKeyPair(i)
		d.pos[i] = geo.Point{Lng: 114.171 + float64(i%4)*0.002, Lat: 22.301 + float64(i/4)*0.002}
		d.disks[i] = store.NewMemFS()
		if i < endorsers {
			d.g.Endorsers = append(d.g.Endorsers, types.EndorserInfo{
				Address: d.keys[i].Address(),
				PubKey:  d.keys[i].Public(),
				Geohash: geo.MustEncode(d.pos[i], geo.CSCPrecision),
			})
		}
	}
	for i := range d.keys {
		d.boot(i)
		d.net.AddNode(d.keys[i].Address(), d.nodes[i])
	}
	return d
}

// boot builds node i's incarnation from its durable directory only.
func (d *durableNet) boot(i int) {
	dir, err := store.OpenDir(d.disks[i], "node", store.DirOptions{Sync: true})
	if err != nil {
		d.t.Fatal(err)
	}
	built, err := assemble.Node(assemble.Config{
		Genesis: d.g,
		Key:     d.keys[i],
		Index:   i,
		Seed:    1,
		Engine: core.Config{
			Epoch:             d.epoch,
			ViewChangeTimeout: 500 * time.Millisecond,
		},
		Durable: dir,
	})
	if err != nil {
		d.t.Fatal(err)
	}
	node := built.Node
	node.Exec = d.net.Executor(d.keys[i].Address())
	d.nodes[i], d.engines[i] = node, built.Core
}

// start runs Init on the listed nodes at the current virtual time.
func (d *durableNet) start(nodes ...int) {
	for _, i := range nodes {
		d.nodes[i].Start(d.net.Now())
	}
}

// restart fail-stops node i and starts a fresh incarnation in its place.
func (d *durableNet) restart(i int) {
	d.net.Crash(d.keys[i].Address())
	d.boot(i)
	d.net.Restart(d.keys[i].Address(), d.nodes[i])
	d.start(i)
}

// report has node `author` upload its location every 250 ms until
// until, through node via.
func (d *durableNet) report(author, via int, until time.Duration) {
	for at := 50 * time.Millisecond; at < until; at += 250 * time.Millisecond {
		d.net.Schedule(at, func(now consensus.Time) {
			d.nonces[author]++
			tx := &types.Transaction{
				Type:  types.TxLocationReport,
				Nonce: d.nonces[author],
				Geo:   types.GeoInfo{Location: d.pos[author], Timestamp: d.epoch.Add(now)},
			}
			tx.Sign(d.keys[author])
			_ = d.nodes[via].Submit(now, tx)
		})
	}
}

// runUntil steps the simulation until cond holds, failing after limit.
func (d *durableNet) runUntil(limit time.Duration, what string, cond func() bool) {
	d.t.Helper()
	for !cond() {
		if d.net.Now() >= limit {
			d.t.Fatalf("%v into the run: never %s", d.net.Now(), what)
		}
		d.net.Run(d.net.Now() + time.Millisecond)
	}
}

func (d *durableNet) chain(i int) *ledger.Chain { return d.nodes[i].App.Chain() }

// liveOrder is the committee sorted by the geographic timers the table
// holds now — the rotation a node would get by ordering from live state.
func liveOrder(c *ledger.Chain) []gcrypto.Address {
	var out []gcrypto.Address
	for _, e := range c.Endorsers() {
		out = append(out, e.Address)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := c.Table().Timer(out[i].String()), c.Table().Timer(out[j].String())
		if ti != tj {
			return ti > tj
		}
		return out[i].Less(out[j])
	})
	return out
}

// primaries lists the primary of every view in one rotation.
func primaries(com *consensus.Committee) string {
	if com == nil {
		return "no committee"
	}
	var out []string
	for v := 0; v < com.Size(); v++ {
		out = append(out, com.Primary(uint64(v)).Short())
	}
	return fmt.Sprint(out)
}

// TestRestartedBackupVotesInItsView: seven endorsers rotate by
// geographic timer and report their location. A backup restarted from
// its WAL and block log three blocks into an era, when the blocks of the
// era have reset their proposers' timers and the live table no longer
// gives the era's rotation, comes back with the committee's rotation and
// votes in the committee's view within the next three slots.
func TestRestartedBackupVotesInItsView(t *testing.T) {
	d := newDurableNet(t, 7, 7)
	for i := 0; i < 7; i++ {
		d.report(i, i, 8*time.Second)
	}
	d.start(0, 1, 2, 3, 4, 5, 6)
	var boundary uint64
	d.runUntil(5*time.Second, "switched to era 1", func() bool {
		boundary = d.chain(0).Height()
		return d.chain(0).Era() == 1 && !d.engines[0].Switching()
	})
	d.runUntil(6*time.Second, "committed three blocks of era 1", func() bool {
		return d.chain(0).Height() >= boundary+3
	})
	com := d.engines[0].Committee()
	if live := liveOrder(d.chain(0)); fmt.Sprint(live) == fmt.Sprint(com.Addresses()) {
		t.Fatal("the live table still gives the era's rotation: the restart would not tell the rules apart")
	}
	view := d.engines[0].Inner().View()
	backup := -1
	for i := 1; i < 7 && backup < 0; i++ {
		if d.keys[i].Address() != com.Primary(view) {
			backup = i
		}
	}
	from, restartedAt := d.chain(0).Height(), d.net.Now()
	d.restart(backup)
	d.runUntil(restartedAt+2*time.Second, "committed three more blocks", func() bool {
		return d.chain(0).Height() >= from+3
	})

	voted := false
	for _, v := range d.votes[d.keys[backup].Address()] {
		if v.at >= restartedAt && v.era == 1 && v.view == view && v.seq > from && v.seq <= from+3 {
			voted = true
		}
	}
	if !voted {
		t.Fatalf("restarted backup %d sent no vote in era 1 view %d for slots %d..%d", backup, view, from+1, from+3)
	}
	if got := primaries(d.engines[backup].Committee()); got != primaries(com) {
		t.Fatalf("restarted backup %d rotates %s, the committee %s", backup, got, primaries(com))
	}
	if v := d.engines[0].Inner().View(); v != view {
		t.Fatalf("the committee changed view %d -> %d around the restart", view, v)
	}
}

// TestJoinerPastTheBoundaryAgreesOnEveryPrimary: a candidate elected at
// the first boundary misses the announcement of its era, and learns of
// it three blocks later. It syncs past the boundary block, through
// blocks that reset their proposers' timers, and joins with the rotation
// the era began with: every primary it names is the committee's.
func TestJoinerPastTheBoundaryAgreesOnEveryPrimary(t *testing.T) {
	d := newDurableNet(t, 8, 7)
	for i := 0; i < 7; i++ {
		d.report(i, i, 8*time.Second)
	}
	// The candidate is down until it learns of its era; a member carries
	// its reports.
	joiner := d.keys[7].Address()
	d.net.Crash(joiner)
	d.report(7, 0, 8*time.Second)
	d.start(0, 1, 2, 3, 4, 5, 6)
	var boundary uint64
	d.runUntil(5*time.Second, "switched to era 1", func() bool {
		boundary = d.chain(0).Height()
		return d.chain(0).Era() == 1 && !d.engines[0].Switching()
	})
	if !d.chain(0).IsEndorser(joiner) {
		t.Fatal("the candidate was not elected at the boundary")
	}
	d.runUntil(7*time.Second, "committed three blocks of era 1", func() bool {
		return d.chain(0).Height() >= boundary+3
	})
	com := d.engines[0].Committee()
	if live := liveOrder(d.chain(0)); fmt.Sprint(live) == fmt.Sprint(com.Addresses()) {
		t.Fatal("the live table still gives the era's rotation: the join would not tell the rules apart")
	}

	d.net.Recover(joiner)
	d.start(7)
	head := d.chain(0).Height()
	d.nodes[7].Deliver(d.net.Now(), consensus.Seal(d.keys[0], &core.EraAnnounce{NewEra: 1, Height: head}))
	d.runUntil(d.net.Now()+time.Second, "joined era 1", func() bool {
		return d.engines[7].IsEndorser() && d.engines[7].Era() == 1
	})
	if d.chain(7).Height() <= boundary {
		t.Fatalf("the joiner stopped at height %d, not past the boundary block %d", d.chain(7).Height(), boundary)
	}
	if got := primaries(d.engines[7].Committee()); got != primaries(com) {
		t.Fatalf("joiner rotates %s, the committee %s", got, primaries(com))
	}
}
