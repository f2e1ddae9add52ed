package transport

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"gpbft/internal/consensus"
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
	env := consensus.Seal(kp, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, View: 2, Seq: 3}})
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
	if err := a.Send(kpB.Address(), env); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-b.Incoming():
		if got.From != kpA.Address() || got.MsgKind != consensus.KindPrepare {
			t.Fatal("wrong envelope")
		}
		if err := got.Verify(); err != nil {
			t.Fatal(err)
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

// TestRealTCPPBFTCluster runs a full 4-node PBFT committee over real
// localhost TCP and commits a transaction end to end.
func TestRealTCPPBFTCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP cluster in -short mode")
	}
	const n = 4
	keys := make([]*gcrypto.KeyPair, n)
	g := &ledger.Genesis{ChainID: "tcp-test", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	for i := 0; i < n; i++ {
		keys[i] = gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: keys[i].Address(), PubKey: keys[i].Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114.18, Lat: 22.3}, geo.CSCPrecision),
		})
	}
	com, err := consensus.NewCommittee(g.Endorsers)
	if err != nil {
		t.Fatal(err)
	}

	// Start all endpoints first so the address book is complete.
	tcps := make([]*TCP, n)
	for i := 0; i < n; i++ {
		tp, err := New(Config{Listen: "127.0.0.1:0", Key: keys[i]})
		if err != nil {
			t.Fatal(err)
		}
		defer tp.Close()
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
	defer cancel()

	committed := make(chan uint64, n*4)
	runners := make([]*Runner, n)
	for i := 0; i < n; i++ {
		chain, err := ledger.NewChain(g)
		if err != nil {
			t.Fatal(err)
		}
		app := runtime.NewApp(chain, runtime.NewMempool(0), keys[i].Address(), epoch, 16)
		eng, err := pbft.New(pbft.Config{
			Committee: com, Key: keys[i], App: app,
			Timers: consensus.NewTimerAllocator(), StartHeight: 1,
			ViewChangeTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		node := &runtime.Node{
			ID: keys[i].Address(), Key: keys[i], App: app, Engine: eng,
			OnCommit: func(_ consensus.Time, b *types.Block) {
				committed <- b.Header.Height
			},
		}
		runners[i] = NewRunner(node, tcps[i])
		go runners[i].Run(ctx)
	}

	// Submit one transaction at node 1.
	tx := &types.Transaction{
		Type: types.TxNormal, Nonce: 1, Payload: []byte("over-tcp"), Fee: 1,
		Geo: types.GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3}, Timestamp: epoch.Add(time.Second)},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(1000))
	if err := runners[1].Submit(tx); err != nil {
		t.Fatal(err)
	}

	// All four nodes must commit height 1.
	seen := 0
	deadline := time.After(30 * time.Second)
	for seen < n {
		select {
		case h := <-committed:
			if h == 1 {
				seen++
			}
		case <-deadline:
			t.Fatalf("only %d/%d nodes committed within deadline", seen, n)
		}
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
	com, err := consensus.NewCommittee(g.Endorsers)
	if err != nil {
		t.Fatal(err)
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
		chain, err := ledger.NewChain(g)
		if err != nil {
			t.Fatal(err)
		}
		app := runtime.NewApp(chain, runtime.NewMempool(0), keys[i].Address(), epoch, 16)
		eng, err := pbft.New(pbft.Config{
			Committee: com, Key: keys[i], App: app,
			Timers: consensus.NewTimerAllocator(), StartHeight: 1,
			ViewChangeTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		i := i
		nodes[i] = &runtime.Node{
			ID: keys[i].Address(), Key: keys[i], App: app, Engine: eng,
			OnCommit: func(_ consensus.Time, b *types.Block) {
				committed <- commitEv{node: i, height: b.Header.Height}
			},
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
