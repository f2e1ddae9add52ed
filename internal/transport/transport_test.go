package transport

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
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
	"gpbft/internal/types"
)

var epoch = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)

func TestFrameRoundTrip(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	env := consensus.Seal(kp, &pbft.TxRejected{TxID: gcrypto.Hash{3}, Reason: types.RejectPoolFull})
	var buf bytes.Buffer
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.MsgKind != env.MsgKind || got.From != env.From {
		t.Fatal("frame mangled")
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLimits(t *testing.T) {
	// A hostile 4-byte header claiming a giant frame must be rejected.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// Truncated frame fails cleanly.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame must fail")
	}
}

func TestTCPSendReceive(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)

	b, err := New(Config{Listen: "127.0.0.1:0", Self: kpB.Address()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a, err := New(Config{
		Listen: "127.0.0.1:0",
		Self:   kpA.Address(),
		Peers:  []Peer{{Addr: kpB.Address(), HostPort: b.ListenAddr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 7, View: 0, Seq: 1}})
	env.Sender = 5
	if err := a.Send(kpB.Address(), env); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Incoming():
		if got.Sender != 5 || got.MsgKind != consensus.KindPrepare || !bytes.Equal(got.Body, env.Body) {
			t.Fatal("wrong envelope")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for delivery")
	}

	// Unknown peer is an error.
	if err := a.Send(gcrypto.DeterministicKeyPair(9).Address(), env); err != ErrUnknownPeer {
		t.Fatalf("want ErrUnknownPeer, got %v", err)
	}
}

func TestTCPAddPeerLater(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)
	b, _ := New(Config{Listen: "127.0.0.1:0", Self: kpB.Address()})
	defer b.Close()
	a, _ := New(Config{Listen: "127.0.0.1:0", Self: kpA.Address()})
	defer a.Close()

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1}})
	if err := a.Send(kpB.Address(), env); err != ErrUnknownPeer {
		t.Fatal("peer should be unknown before AddPeer")
	}
	a.AddPeer(Peer{Addr: kpB.Address(), HostPort: b.ListenAddr()})
	if err := a.Send(kpB.Address(), env); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("timeout after AddPeer")
	}
}

// tcpCluster is an n-member PBFT committee over localhost TCP, every
// commit reported on one channel; keys are in committee order.
type tcpCluster struct {
	keys      []*gcrypto.KeyPair
	com       *consensus.Committee
	tcps      []*TCP
	runners   []*Runner
	committed chan *types.Block
}

func startTCPCluster(t *testing.T, n int) *tcpCluster {
	t.Helper()
	g := &ledger.Genesis{ChainID: "tcp-test", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	for i := 0; i < n; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114.18, Lat: 22.3}, geo.CSCPrecision),
		})
	}
	com, err := consensus.NewCommittee(g.Endorsers)
	if err != nil {
		t.Fatal(err)
	}
	c := &tcpCluster{com: com, committed: make(chan *types.Block, 256)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if kp := gcrypto.DeterministicKeyPair(j); kp.Address() == com.Member(i).Address {
				c.keys = append(c.keys, kp)
			}
		}
	}
	nodes := make([]*runtime.Node, n)
	for i := range nodes {
		nodes[i] = pbftTestNode(t, g, c.keys[i])
		nodes[i].OnCommit = func(_ consensus.Time, b *types.Block) { c.committed <- b }
	}
	c.tcps, c.runners = runMesh(t, c.keys, nodes)
	return c
}

// pbftTestNode builds a PBFT baseline node over g's committee with
// 16-transaction blocks and a 5 s view-change timeout.
func pbftTestNode(t *testing.T, g *ledger.Genesis, kp *gcrypto.KeyPair) *runtime.Node {
	t.Helper()
	built, err := assemble.Node(assemble.Config{
		Genesis: g,
		Key:     kp,
		Engine: core.Config{
			Epoch: epoch, ViewChangeTimeout: 5 * time.Second, DisableEraSwitch: true,
		},
		Batch:   16,
		Ceiling: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return built.Node
}

// runMesh puts each node behind its own localhost endpoint, gives every
// endpoint the full address book and starts every runner; keys[i] is
// nodes[i]'s identity. When the test ends the runners are stopped and
// waited for, then the endpoints close.
func runMesh(t *testing.T, keys []*gcrypto.KeyPair, nodes []*runtime.Node) ([]*TCP, []*Runner) {
	t.Helper()
	n := len(nodes)
	tcps := make([]*TCP, n)
	for i := range tcps {
		tp, err := New(Config{Listen: "127.0.0.1:0", Key: keys[i]})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tp.Close)
		tcps[i] = tp
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				tcps[i].AddPeer(Peer{Addr: keys[j].Address(), HostPort: tcps[j].ListenAddr()})
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	runners := make([]*Runner, n)
	for i := range runners {
		runners[i] = NewRunner(nodes[i], tcps[i])
		wg.Add(1)
		go func(r *Runner) {
			defer wg.Done()
			r.Run(ctx)
		}(runners[i])
	}
	return tcps, runners
}

// TestRealTCPPBFTCluster runs a full 4-node PBFT committee over real
// localhost TCP and commits a transaction end to end.
func TestRealTCPPBFTCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster in -short mode")
	}
	const n = 4
	c := startTCPCluster(t, n)

	// Submit one transaction at node 1.
	tx := &types.Transaction{
		Type: types.TxNormal, Nonce: 1, Payload: []byte("over-tcp"), Fee: 1,
		Geo: types.GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3}, Timestamp: epoch.Add(time.Second)},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(1000))
	if err := c.runners[1].Submit(tx); err != nil {
		t.Fatal(err)
	}

	// All four nodes must commit height 1.
	seen := 0
	deadline := time.After(30 * time.Second)
	for seen < n {
		select {
		case b := <-c.committed:
			if b.Header.Height == 1 {
				seen++
			}
		case <-deadline:
			t.Fatalf("only %d/%d nodes committed within deadline", seen, n)
		}
	}
}

// TestClientRequestNamesNoRelayer: a request off a client connection is
// attributed to that connection, whatever relayer its envelope was built
// for. A request once carried its relayer's address on the wire, and a
// client that wrote a member's there made the backup it reached take it
// for that member's relay, relayed no further: the transaction stranded
// on the backup, whose progress timer then started a view change nobody
// joined. Now the backup relays it and it commits in view 0, inside one
// progress timeout.
func TestClientRequestNamesNoRelayer(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster in -short mode")
	}
	c := startTCPCluster(t, 4)
	prim := c.com.IndexOf(c.com.Primary(0))
	backup, claimed := (prim+1)%4, (prim+2)%4
	tx := &types.Transaction{
		Type: types.TxNormal, Nonce: 1, Payload: []byte("from-a-client"), Fee: 1,
		Geo: types.GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3}, Timestamp: epoch.Add(time.Second)},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(1000))

	conn, err := net.Dial("tcp", c.tcps[backup].ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, pbft.NewRequest(c.keys[claimed], tx)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(4 * time.Second)
	for {
		select {
		case b := <-c.committed:
			if len(b.Txs) == 1 && b.Txs[0].ID() == tx.ID() {
				if b.Header.View != 0 {
					t.Fatalf("committed in view %d, want 0", b.Header.View)
				}
				return
			}
		case <-deadline:
			t.Fatal("the client's request did not commit in view 0")
		}
	}
}

// TestReadLoopPreVerifiesRequest: the connection that reads a request
// checks its transaction's signature before the envelope is queued, so
// the event loop's check is a cache hit.
func TestReadLoopPreVerifiesRequest(t *testing.T) {
	node, err := New(Config{Listen: "127.0.0.1:0", Key: gcrypto.DeterministicKeyPair(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	tx := &types.Transaction{
		Type: types.TxNormal, Nonce: 1, Payload: []byte("read-loop"), Fee: 1,
		Geo: types.GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3}, Timestamp: epoch.Add(time.Second)},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(1001))

	conn := dialRaw(t, node.ListenAddr())
	defer conn.Close()
	if err := WriteFrame(conn, pbft.NewRequest(gcrypto.DeterministicKeyPair(9), tx)); err != nil {
		t.Fatal(err)
	}
	var env *consensus.Envelope
	select {
	case env = <-node.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("request not delivered")
	}
	var req pbft.Request
	if err := consensus.OpenUnverified(env, consensus.KindRequest, &req); err != nil {
		t.Fatal(err)
	}
	_, before := types.SigCacheStats()
	if err := req.Tx.VerifyCached(); err != nil {
		t.Fatal(err)
	}
	if _, after := types.SigCacheStats(); after != before {
		t.Fatal("the request's transaction reached the event loop unverified")
	}
}

// TestWireBytesOverTCP: two endpoints, one connection carrying both
// directions. Every frame weighs its canonical encoding plus the length
// prefix whatever the connection carried before, and again after the
// connection is cut and redialed, and Stats count exactly that on both
// sides. A vote arrives naming its sender by committee position, a
// request attributed to the identity the connection was made with.
func TestWireBytesOverTCP(t *testing.T) {
	kpA, kpB := gcrypto.DeterministicKeyPair(1), gcrypto.DeterministicKeyPair(2)
	b, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := New(Config{Listen: "127.0.0.1:0", Key: kpA, Peers: []Peer{{Addr: kpB.Address(), HostPort: b.ListenAddr()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	hello := int64(4 + len(EncodeHello(NewHello(kpA))))
	var sentAB, sentBA int64 // frame bytes offered per direction
	exchange := func(seq uint64) {
		t.Helper()
		ab := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: seq}})
		ab.Sender = 3
		ba := pbft.NewRequest(kpB, mkClientTx(kpB, seq))
		if err := a.Send(kpB.Address(), ab); err != nil {
			t.Fatal(err)
		}
		if got := recvEnvelope(t, b); got.Sender != 3 || !bytes.Equal(consensus.EncodeEnvelope(got), consensus.EncodeEnvelope(ab)) {
			t.Fatal("vote changed on the wire")
		}
		if err := b.Send(kpA.Address(), ba); err != nil {
			t.Fatal(err)
		}
		if got := recvEnvelope(t, a); got.From != kpB.Address() || !bytes.Equal(got.Body, ba.Body) {
			t.Fatal("request not attributed to the connection's identity")
		}
		sentAB += int64(4 + ab.WireSize())
		sentBA += int64(4 + ba.WireSize())
	}
	// wireBytes waits for the counters to settle (the writer counts
	// after its write returns) and checks both ends agree.
	wireBytes := func() {
		t.Helper()
		waitUntil(t, "wire-byte counters", func() bool {
			sa, sb := a.Stats(), b.Stats()
			return sa.BytesOut == sa.Dials*hello+sentAB && sb.BytesIn == sentAB &&
				sb.BytesOut == sentBA && sa.BytesIn == sentBA
		})
	}

	exchange(1) // a dials b; b adopts the connection for its own traffic
	exchange(2)
	wireBytes()
	if s := b.Stats(); len(s.Peers) != 1 || !s.Peers[0].Inbound || s.Dials != 0 {
		t.Fatalf("b did not reuse a's connection: %+v", s)
	}

	// Cut the connection under both writers; a redials (b has no address
	// for a and waits to be dialed).
	a.mu.Lock()
	p := a.peers[kpB.Address()]
	a.mu.Unlock()
	p.mu.Lock()
	p.conn.Close()
	p.mu.Unlock()
	waitUntil(t, "both ends to drop the dead connection", func() bool {
		return a.Stats().OpenConns == 0 && b.Stats().OpenConns == 0
	})
	exchange(3)
	if sa, sb := a.Stats(), b.Stats(); sa.Dials != 2 || sb.Dials != 0 {
		t.Fatalf("dials after one cut: a=%d b=%d, want 2 and 0", sa.Dials, sb.Dials)
	}
	wireBytes()
}

// recvEnvelope waits for the next envelope an endpoint delivers.
func recvEnvelope(t *testing.T, tp *TCP) *consensus.Envelope {
	t.Helper()
	select {
	case env := <-tp.Incoming():
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for delivery")
		return nil
	}
}

// waitUntil polls cond until it holds; the event waited on is named in
// the failure.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPClusterStatsAndPeerMove runs a 4-node PBFT committee over
// real TCP, checks that transport.Stats reports live traffic, then
// moves one node to a brand-new port mid-run. The survivors learn the
// new endpoint via AddPeer and the cluster must commit another block —
// the era-switch/reconnect scenario of the paper's Raspberry-Pi
// deployment (Section V).
func TestTCPClusterStatsAndPeerMove(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster in -short mode")
	}
	const n = 4
	keys := make([]*gcrypto.KeyPair, n)
	g := &ledger.Genesis{ChainID: "tcp-move-test", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	for i := 0; i < n; i++ {
		keys[i] = gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: keys[i].Address(), PubKey: keys[i].Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114.18, Lat: 22.3}, geo.CSCPrecision),
		})
	}
	newTCP := func(i int) *TCP {
		tp, err := New(Config{Listen: "127.0.0.1:0", Key: keys[i], DialTimeout: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	tcps := make([]*TCP, n)
	for i := 0; i < n; i++ {
		tcps[i] = newTCP(i)
	}
	defer func() {
		for _, tp := range tcps {
			tp.Close()
		}
	}()
	wirePeers := func(tp *TCP, self int) {
		for j := 0; j < n; j++ {
			if j != self {
				tp.AddPeer(Peer{Addr: keys[j].Address(), HostPort: tcps[j].ListenAddr()})
			}
		}
	}
	for i := 0; i < n; i++ {
		wirePeers(tcps[i], i)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type commitEv struct {
		node   int
		height uint64
	}
	committed := make(chan commitEv, n*16)
	nodes := make([]*runtime.Node, n)
	runnerCancel := make([]context.CancelFunc, n)
	runnerDone := make([]chan struct{}, n)
	startRunner := func(i int) *Runner {
		r := NewRunner(nodes[i], tcps[i])
		rctx, rcancel := context.WithCancel(ctx)
		done := make(chan struct{})
		runnerCancel[i], runnerDone[i] = rcancel, done
		go func() {
			defer close(done)
			r.Run(rctx)
		}()
		return r
	}
	runners := make([]*Runner, n)
	for i := 0; i < n; i++ {
		i := i
		nodes[i] = pbftTestNode(t, g, keys[i])
		nodes[i].OnCommit = func(_ consensus.Time, b *types.Block) {
			committed <- commitEv{node: i, height: b.Header.Height}
		}
		runners[i] = startRunner(i)
	}

	waitHeight := func(h uint64) {
		t.Helper()
		seen := make(map[int]bool)
		deadline := time.After(30 * time.Second)
		for len(seen) < n {
			select {
			case ev := <-committed:
				if ev.height == h {
					seen[ev.node] = true
				}
			case <-deadline:
				t.Fatalf("only %d/%d nodes committed height %d within deadline", len(seen), n, h)
			}
		}
	}

	submitTx := func(nonce uint64, payload string) {
		tx := &types.Transaction{
			Type: types.TxNormal, Nonce: nonce, Payload: []byte(payload), Fee: 1,
			Geo: types.GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3}, Timestamp: epoch.Add(time.Duration(nonce) * time.Second)},
		}
		tx.Sign(gcrypto.DeterministicKeyPair(1000))
		if err := runners[1].Submit(tx); err != nil {
			t.Fatal(err)
		}
	}

	submitTx(1, "before-move")
	waitHeight(1)

	// Consensus traffic must show up in the stats of every endpoint. A
	// node commits on what it RECEIVED; its own votes may still sit in a
	// peer queue behind a dial in progress, and a writer counts a frame
	// only after its write returns — so wait for the counters, do not
	// read them once.
	for i, tp := range tcps {
		tp := tp
		waitUntil(t, fmt.Sprintf("node %d stats to show traffic in both directions", i), func() bool {
			s := tp.Stats()
			return s.FramesIn > 0 && s.FramesOut > 0 && s.BytesIn > 0 && s.BytesOut > 0
		})
	}

	// Node 3 moves: its runner is stopped, its transport restarts on a
	// brand-new port, and a fresh runner drives the SAME engine state.
	// Survivors re-register the endpoint via AddPeer on their LIVE
	// transports — their writers held connections to the dead port.
	const mover = 3
	runnerCancel[mover]()
	<-runnerDone[mover]
	tcps[mover].Close()
	tcps[mover] = newTCP(mover)
	wirePeers(tcps[mover], mover)
	runners[mover] = startRunner(mover)
	for i := 0; i < n; i++ {
		if i != mover {
			tcps[i].AddPeer(Peer{Addr: keys[mover].Address(), HostPort: tcps[mover].ListenAddr()})
		}
	}

	submitTx(2, "after-move")
	waitHeight(2)

	// The survivors' writers had a dead endpoint for the mover; commit
	// at height 2 on all four nodes proves the re-registered address
	// took effect on live connections.
	if s := tcps[mover].Stats(); s.FramesIn == 0 {
		t.Fatalf("moved node saw no inbound frames on its new endpoint: %+v", s)
	}
}

// TestAdmittedRequestIsTheOneOpened: with an admission gate, the read
// loop decodes a request once, before the gate, and the event loop's
// open reuses that decode — the transaction the gate admitted is the
// one the event loop opens.
func TestAdmittedRequestIsTheOneOpened(t *testing.T) {
	var admitted *types.Transaction
	node, err := New(Config{
		Listen: "127.0.0.1:0",
		Key:    gcrypto.DeterministicKeyPair(1),
		AdmitTx: func(tx *types.Transaction) error {
			admitted = tx
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	tx := &types.Transaction{
		Type: types.TxNormal, Nonce: 1, Payload: []byte("decoded once"), Fee: 1,
		Geo: types.GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3}, Timestamp: epoch.Add(time.Second)},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(1001))

	conn := dialRaw(t, node.ListenAddr())
	defer conn.Close()
	if err := WriteFrame(conn, pbft.NewRequest(gcrypto.DeterministicKeyPair(9), tx)); err != nil {
		t.Fatal(err)
	}
	var env *consensus.Envelope
	select {
	case env = <-node.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("request not delivered")
	}
	opened, err := pbft.OpenRequest(env)
	if err != nil {
		t.Fatal(err)
	}
	if admitted == nil || opened != admitted {
		t.Fatal("the event loop opened a transaction other than the one the gate admitted")
	}
	if opened.ID() != tx.ID() {
		t.Fatal("the opened transaction is not the one sent")
	}
}
