package core_test

import (
	"errors"
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// requestTap wraps a node's engine and keeps every request envelope its
// steps emit, by transaction.
type requestTap struct {
	consensus.Engine
	sent map[gcrypto.Hash][]gcrypto.Address // tx ID -> recipients, one entry per envelope copy
}

func tapRequests(c *gpbft.Cluster, node int) *requestTap {
	tap := &requestTap{Engine: c.Node(node).Engine, sent: make(map[gcrypto.Hash][]gcrypto.Address)}
	c.Node(node).Engine = tap
	return tap
}

func (r *requestTap) note(acts []consensus.Action) []consensus.Action {
	for _, a := range acts {
		var env *consensus.Envelope
		var to []gcrypto.Address
		switch v := a.(type) {
		case consensus.Send:
			env, to = v.Env, []gcrypto.Address{v.To}
		case consensus.Broadcast:
			env, to = v.Env, v.To
		}
		if env == nil || env.MsgKind != consensus.KindRequest {
			continue
		}
		if tx, err := pbft.OpenRequest(env); err == nil {
			r.sent[tx.ID()] = append(r.sent[tx.ID()], to...)
		}
	}
	return acts
}

func (r *requestTap) Init(now consensus.Time) []consensus.Action {
	return r.note(r.Engine.Init(now))
}

func (r *requestTap) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	return r.note(r.Engine.OnEnvelope(now, env))
}

func (r *requestTap) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	return r.note(r.Engine.OnTimer(now, id))
}

func (r *requestTap) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	return r.note(r.Engine.OnRequest(now, tx))
}

func (r *requestTap) OnCommitApplied(now consensus.Time) []consensus.Action {
	return r.note(r.Engine.(consensus.CommitNotifiable).OnCommitApplied(now))
}

// switchCluster is a cluster whose first `endorsers` nodes form the
// committee and switch eras every second with a 100 ms pause; only the
// nodes in `reporting` upload their location.
func switchCluster(t *testing.T, nodes, endorsers int, reporting []int) *gpbft.Cluster {
	t.Helper()
	o := fastOpts(nodes)
	o.GenesisEndorsers = endorsers
	o.MaxEndorsers = endorsers
	o.ForceEraSwitch = true
	o.EraPeriod = time.Second
	o.SwitchPeriod = 100 * time.Millisecond
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range reporting {
		c.ScheduleReports(i, 50*time.Millisecond, 250*time.Millisecond, 12)
	}
	return c
}

// runUntilSwitching steps the simulation until every listed node is in
// the pause of its first era switch.
func runUntilSwitching(t *testing.T, c *gpbft.Cluster, nodes ...int) {
	t.Helper()
	for c.Now() < 10*time.Second {
		c.Run(c.Now() + time.Millisecond)
		all := true
		for _, i := range nodes {
			all = all && c.CoreEngine(i).Switching()
		}
		if all {
			return
		}
	}
	t.Fatalf("nodes %v never paused for an era switch together", nodes)
}

func committed(c *gpbft.Cluster, node int, tx *types.Transaction) bool {
	_, ok := c.Node(node).App.Chain().FindTx(tx.ID())
	return ok
}

// assertHeldAllRerelayed checks the two request-path counters after the
// run: everything held was re-relayed, and at least min requests were
// (a node's own location report may fall into a pause too).
func assertHeldAllRerelayed(t *testing.T, c *gpbft.Cluster, node int, min uint64) {
	t.Helper()
	s := c.SyncStats(node)
	if s.RequestsHeld != s.RequestsRerelayed || s.RequestsHeld < min {
		t.Fatalf("node %d held %d requests and re-relayed %d, want equal and at least %d", node, s.RequestsHeld, s.RequestsRerelayed, min)
	}
}

// TestObserverRequestDuringSwitchRelayedOnce: a request from outside the
// committee that reaches an endorser in the switch pause is pooled, not
// dropped, and relayed to the new era's committee exactly once.
func TestObserverRequestDuringSwitchRelayedOnce(t *testing.T) {
	c := switchCluster(t, 5, 4, []int{0, 1, 2, 3})
	tap := tapRequests(c, 0)
	runUntilSwitching(t, c, 0)

	tx := c.NewNodeTx(4, c.Now(), []byte("from an observer"), 1)
	c.Node(0).Deliver(c.Now(), consensus.Seal(c.Node(4).Key, &pbft.Request{Tx: *tx}))
	if !c.Node(0).App.Pool().Contains(tx.ID()) {
		t.Fatal("request delivered during the switch pause is not in the pool")
	}
	if !c.CoreEngine(0).Switching() || len(tap.sent[tx.ID()]) != 0 {
		t.Fatalf("relayed to %d peers while still switching", len(tap.sent[tx.ID()]))
	}
	c.RunUntilIdle(time.Minute)

	if got := len(tap.sent[tx.ID()]); got != 3 {
		t.Fatalf("held request reached %d peers over the whole run, want one relay to the 3 others", got)
	}
	if !committed(c, 0, tx) {
		t.Fatal("held request never committed")
	}
	assertHeldAllRerelayed(t, c, 0, 1)
}

// TestRequestBeforeInitRelayedAtInit: a transaction handed to a node
// whose engine has not started is held, not forwarded observer-style to
// one member (which would take a member's message for a committee-wide
// relay and strand it in two pools): Init relays it to the whole
// committee, and it commits under the first primary even though that
// primary is neither the entry node nor the observer path's target.
func TestRequestBeforeInitRelayedAtInit(t *testing.T) {
	o := fastOpts(5)
	o.MaxEndorsers = 4
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1-3 are backups of view 0; node 4 is an observer.
	taps := map[int]*requestTap{}
	txs := map[int]*types.Transaction{}
	for _, i := range []int{1, 2, 3, 4} {
		taps[i] = tapRequests(c, i)
		txs[i] = c.NewNodeTx(i, 0, []byte{byte(i)}, 1)
		if err := c.Node(i).Submit(0, txs[i]); err != nil {
			t.Fatal(err)
		}
		if got := len(taps[i].sent[txs[i].ID()]); got != 0 {
			t.Fatalf("node %d sent its request to %d peers before Init", i, got)
		}
	}
	c.RunUntilIdle(time.Minute)

	for i, tx := range txs {
		want := 3 // an endorser relays to the three other members
		if i == 4 {
			want = 1 // an observer forwards to one member, which relays
		}
		if got := len(taps[i].sent[tx.ID()]); got != want {
			t.Fatalf("node %d sent its pre-Init request to %d peers, want %d", i, got, want)
		}
		if !committed(c, 0, tx) {
			t.Fatalf("request handed to node %d before Init never committed", i)
		}
		assertHeldAllRerelayed(t, c, i, 1)
	}
	for i := 0; i < 4; i++ {
		if v := c.CoreEngine(i).Inner().View(); v != 0 {
			t.Fatalf("node %d ended in view %d: a pre-Init request needed a view change", i, v)
		}
	}
}

// TestMemberRelayDuringSwitchIsTerminal: a fellow member's relay that
// arrives in the pause was broadcast to everyone, so it is pooled and
// resume says nothing about it.
func TestMemberRelayDuringSwitchIsTerminal(t *testing.T) {
	c := switchCluster(t, 4, 4, []int{0, 1, 2, 3})
	tap := tapRequests(c, 0)
	runUntilSwitching(t, c, 0)

	tx := c.NewNodeTx(1, c.Now(), []byte("relayed by a member"), 1)
	c.Node(0).Deliver(c.Now(), consensus.Seal(c.Node(1).Key, &pbft.Request{Tx: *tx}))
	if !c.Node(0).App.Pool().Contains(tx.ID()) {
		t.Fatal("member relay delivered during the switch pause is not in the pool")
	}
	c.RunUntilIdle(time.Minute)

	if got := len(tap.sent[tx.ID()]); got != 0 {
		t.Fatalf("a member's relay was relayed again to %d peers", got)
	}
	assertHeldAllRerelayed(t, c, 0, 0)
}

// TestResumeWithRelayedPoolSendsNoRequests is the storm regression: an
// endorser that resumes with 128 pooled transactions every member
// already holds, into an unchanged committee, emits no request envelope
// — and the backlog commits in the first view of the new era.
func TestResumeWithRelayedPoolSendsNoRequests(t *testing.T) {
	c := switchCluster(t, 4, 4, []int{0, 1, 2, 3})
	tap := tapRequests(c, 0)
	runUntilSwitching(t, c, 0, 1, 2, 3)

	backlog := make([]*types.Transaction, 128)
	for k := range backlog {
		backlog[k] = c.NewNodeTx(1+k%3, c.Now(), []byte{byte(k)}, 1)
		for i := 0; i < 4; i++ {
			if err := c.Node(i).App.SubmitTx(backlog[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	o := c.Options()
	c.Run(c.Now() + o.SwitchPeriod + o.ViewChangeTimeout/2)

	for _, tx := range backlog {
		if got := len(tap.sent[tx.ID()]); got != 0 {
			t.Fatalf("resume sent an already-relayed transaction to %d peers", got)
		}
		if !committed(c, 0, tx) {
			t.Fatal("backlog not committed half a view-change timeout after resume")
		}
	}
	for i := 0; i < 4; i++ {
		if in := c.CoreEngine(i).Inner(); in.Era() != 1 || in.CompletedViewChanges() != 0 {
			t.Fatalf("node %d: era %d opened with %d view changes", i, in.Era(), in.CompletedViewChanges())
		}
	}
}

// TestDemotedNodeForwardsHeldRequests: an endorser the switch removes
// hands what it alone holds to a member of the new committee.
func TestDemotedNodeForwardsHeldRequests(t *testing.T) {
	// Node 4 uploads no location, so the first election expels it.
	c := switchCluster(t, 5, 5, []int{0, 1, 2, 3})
	tap := tapRequests(c, 4)
	runUntilSwitching(t, c, 4)

	tx := c.NewNodeTx(4, c.Now(), []byte("submitted in the pause"), 1)
	if err := c.Node(4).Submit(c.Now(), tx); err != nil {
		t.Fatal(err)
	}
	c.RunUntilIdle(time.Minute)

	if c.CoreEngine(4).IsEndorser() {
		t.Fatal("setup: node 4 is still an endorser")
	}
	to := tap.sent[tx.ID()]
	if len(to) != 1 || !c.Node(0).App.Chain().IsEndorser(to[0]) {
		t.Fatalf("held request forwarded to %v, want one member of the new committee", to)
	}
	if !committed(c, 0, tx) {
		t.Fatal("demoted node's held request never committed")
	}
	assertHeldAllRerelayed(t, c, 4, 1)
}

// TestAddedPrimaryProposesBacklog: the switch adds a member that leads
// the new era's first view. The transactions relayed before the switch
// reach it from the boundary block's proposer, so it proposes them and no
// view change is needed.
func TestAddedPrimaryProposesBacklog(t *testing.T) {
	o := fastOpts(5)
	o.GenesisEndorsers = 4
	o.MaxEndorsers = 8
	o.EraPeriod = 2 * time.Second
	o.SwitchPeriod = 100 * time.Millisecond
	o.QualificationWindow = time.Second
	o.MinReports = 3
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	// The candidate reports first: the longest geographic timer puts it
	// at the head of the new committee's primary rotation.
	c.ScheduleReports(4, 20*time.Millisecond, 200*time.Millisecond, 20)
	for i := 0; i < 4; i++ {
		c.ScheduleReports(i, 400*time.Millisecond, 200*time.Millisecond, 20)
	}
	runUntilSwitching(t, c, 0, 1, 2, 3)

	backlog := make([]*types.Transaction, 20)
	for k := range backlog {
		backlog[k] = c.NewNodeTx(k%4, c.Now(), []byte{byte(k)}, 1)
		for i := 0; i < 4; i++ {
			if err := c.Node(i).App.SubmitTx(backlog[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	resumed := c.Now() + o.SwitchPeriod
	c.Run(resumed + o.ViewChangeTimeout/2)

	in := c.CoreEngine(4).Inner()
	if in == nil || !in.IsPrimary() || in.View() != 0 {
		t.Fatal("setup: the added node does not lead view 0 of the new era")
	}
	for _, tx := range backlog {
		if !committed(c, 0, tx) {
			t.Fatal("pre-switch backlog not committed half a view-change timeout after resume")
		}
	}
	c.RunUntilIdle(time.Minute)
	for i := 0; i < 5; i++ {
		if in := c.CoreEngine(i).Inner(); in == nil || in.Era() == 0 || in.CompletedViewChanges() != 0 {
			t.Fatalf("node %d: new era opened with a view change (or it never joined)", i)
		}
	}
}

// TestObserverRelaysClientRequest: a client's request that reaches a
// node outside the committee is pooled there and forwarded to one
// member, so it commits. A member's relay that reaches the observer is
// pooled and goes nowhere: it came from the committee.
func TestObserverRelaysClientRequest(t *testing.T) {
	o := fastOpts(6)
	o.MaxEndorsers = 4
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	tap := tapRequests(c, 5)
	c.Run(10 * time.Millisecond) // every engine has run Init

	client := gcrypto.DeterministicKeyPair(99)
	fromClient := c.NewNodeTx(5, c.Now(), []byte("via a client"), 1)
	c.Node(5).Deliver(c.Now(), consensus.Seal(client, &pbft.Request{Tx: *fromClient}))
	fromMember := c.NewNodeTx(1, c.Now(), []byte("relayed by a member"), 1)
	c.Node(5).Deliver(c.Now(), consensus.Seal(c.Node(1).Key, &pbft.Request{Tx: *fromMember}))
	c.RunUntilIdle(30 * time.Second)

	if to := tap.sent[fromClient.ID()]; len(to) != 1 || !c.Node(0).App.Chain().IsEndorser(to[0]) {
		t.Fatalf("client request forwarded to %v, want one committee member", to)
	}
	if !committed(c, 0, fromClient) {
		t.Fatalf("client request sent to an observer never committed (observer pool holds %d)", c.Node(5).App.PendingTxs())
	}
	if got := len(tap.sent[fromMember.ID()]); got != 0 {
		t.Fatalf("a member's relay bounced from the observer to %d peers", got)
	}
}

// TestObserverKeepsNothingItForwards: an observer follows no chain, so
// a transaction it forwarded to a member and kept would never leave its
// pool. In a five-node deployment with a committee of four, two
// transactions submitted at the observer and one a client sends it all
// commit, and every pool ends empty, the observer's included.
func TestObserverKeepsNothingItForwards(t *testing.T) {
	o := fastOpts(5)
	o.MaxEndorsers = 4
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Millisecond) // every engine has run Init
	txs := []*types.Transaction{
		c.SubmitNodeTx(c.Now(), 4, []byte("local one"), 1),
		c.SubmitNodeTx(c.Now(), 4, []byte("local two"), 1),
	}
	fromClient := c.NewNodeTx(4, c.Now(), []byte("via a client"), 1)
	c.Node(4).Deliver(c.Now(), consensus.Seal(gcrypto.DeterministicKeyPair(99), &pbft.Request{Tx: *fromClient}))
	txs = append(txs, fromClient)
	c.RunUntilIdle(30 * time.Second)

	for _, tx := range txs {
		if !committed(c, 0, tx) {
			t.Fatalf("transaction %s submitted at the observer never committed", tx.ID().Short())
		}
	}
	for i := 0; i < 5; i++ {
		if n := c.Node(i).App.PendingTxs(); n != 0 {
			t.Fatalf("node %d holds %d pending transactions after every one committed", i, n)
		}
	}
}

// receiveTap wraps a node's engine and keeps every request envelope
// delivered to it.
type receiveTap struct {
	consensus.Engine
	got []*consensus.Envelope
}

func (r *receiveTap) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	if env.MsgKind == consensus.KindRequest {
		r.got = append(r.got, env)
	}
	return r.Engine.OnEnvelope(now, env)
}

func (r *receiveTap) OnCommitApplied(now consensus.Time) []consensus.Action {
	return r.Engine.(consensus.CommitNotifiable).OnCommitApplied(now)
}

// TestSimReceiversDecodeTheirOwnRequest: the simulator hands every
// receiver of a broadcast the one envelope. Each receiver's event loop
// decodes a copy of its own and keeps nothing on the shared envelope,
// so no decoded request passes from one node to another.
func TestSimReceiversDecodeTheirOwnRequest(t *testing.T) {
	c, err := gpbft.NewCluster(fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	taps := make([]*receiveTap, 4)
	for i := range taps {
		taps[i] = &receiveTap{Engine: c.Node(i).Engine}
		c.Node(i).Engine = taps[i]
	}
	c.Run(10 * time.Millisecond)
	tx := c.SubmitNodeTx(c.Now(), 0, []byte("broadcast"), 1)
	c.RunUntilIdle(10 * time.Second)
	if !committed(c, 1, tx) {
		t.Fatal("the request never committed")
	}

	receivers := make(map[*consensus.Envelope]int)
	for _, tap := range taps {
		for _, env := range tap.got {
			receivers[env]++
		}
	}
	shared := 0
	for env, n := range receivers {
		if n < 2 {
			continue
		}
		shared++
		if _, err := env.Decoded(false, func() (any, error) { return nil, errNoMemo }); err != errNoMemo {
			t.Fatalf("a request envelope %d receivers share carries a decoded body", n)
		}
		a, errA := pbft.OpenRequest(env)
		b, errB := pbft.OpenRequest(env)
		if errA != nil || errB != nil || a == b {
			t.Fatalf("two receivers' opens of one envelope share a transaction (%v, %v)", errA, errB)
		}
	}
	if shared == 0 {
		t.Fatal("setup: no request envelope reached two receivers")
	}
}

var errNoMemo = errors.New("no memo")
