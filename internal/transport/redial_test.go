package transport

import (
	"net"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

// TestRedialAfterPeerRestart: messages sent while the peer is down are
// eventually dropped, but once the peer comes back (same port) new
// messages get through on a fresh connection.
func TestRedialAfterPeerRestart(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)

	// Reserve a port for B, then shut it down so A dials into a void.
	b1, err := New(Config{Listen: "127.0.0.1:0", Self: kpB.Address()})
	if err != nil {
		t.Fatal(err)
	}
	addr := b1.ListenAddr()
	b1.Close()

	a, err := New(Config{
		Listen:      "127.0.0.1:0",
		Self:        kpA.Address(),
		Peers:       []Peer{{Addr: kpB.Address(), HostPort: addr}},
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})
	// Fire one message into the void; the writer retries with backoff.
	if err := a.Send(kpB.Address(), env); err != nil {
		t.Fatal(err)
	}
	// Bring B back on the SAME port.
	time.Sleep(150 * time.Millisecond)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("port %s not immediately reusable: %v", addr, err)
	}
	ln.Close()
	b2, err := New(Config{Listen: addr, Self: kpB.Address()})
	if err != nil {
		t.Skipf("rebind %s: %v", addr, err)
	}
	defer b2.Close()

	// The queued (or a fresh) message must arrive once B is back.
	deadline := time.After(10 * time.Second)
	got := false
	for !got {
		if err := a.Send(kpB.Address(), env); err != nil {
			t.Fatal(err)
		}
		select {
		case <-b2.Incoming():
			got = true
		case <-time.After(300 * time.Millisecond):
		case <-deadline:
			t.Fatal("message never arrived after peer restart")
		}
	}
}

// TestAddPeerEndpointChangeLiveConn is the regression test for the
// seed bug where writeLoop captured hostport once at spawn: after the
// peer moves, AddPeer's new endpoint must reach the live writer. Here
// the writer already holds a connection to the OLD endpoint; the
// update must burn it and redial the new one.
func TestAddPeerEndpointChangeLiveConn(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)

	b1, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Listen:      "127.0.0.1:0",
		Key:         kpA,
		Peers:       []Peer{{Addr: kpB.Address(), HostPort: b1.ListenAddr()}},
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})
	if err := a.Send(kpB.Address(), env); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b1.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("initial delivery failed")
	}

	// The peer moves: old endpoint dies, a new one appears elsewhere.
	b2, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b1.Close()
	a.AddPeer(Peer{Addr: kpB.Address(), HostPort: b2.ListenAddr()})

	deadline := time.After(10 * time.Second)
	for {
		if err := a.Send(kpB.Address(), env); err != nil {
			t.Fatal(err)
		}
		select {
		case <-b2.Incoming():
			return
		case <-time.After(200 * time.Millisecond):
		case <-deadline:
			t.Fatal("messages never followed the peer to its new endpoint")
		}
	}
}

// TestAddPeerEndpointChangeWhileBackingOff: the writer is stuck
// redialing a dead endpoint; AddPeer must cut the backoff short and
// the queued message must come out at the NEW endpoint.
func TestAddPeerEndpointChangeWhileBackingOff(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)

	// Reserve-and-release a port so the book points into a void.
	hole, err := New(Config{Listen: "127.0.0.1:0", Self: kpB.Address()})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := hole.ListenAddr()
	hole.Close()

	a, err := New(Config{
		Listen:      "127.0.0.1:0",
		Key:         kpA,
		Peers:       []Peer{{Addr: kpB.Address(), HostPort: deadAddr}},
		DialTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})
	if err := a.Send(kpB.Address(), env); err != nil {
		t.Fatal(err)
	}
	// Let the writer enter its dial/backoff loop against the dead port.
	time.Sleep(150 * time.Millisecond)

	b, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(Peer{Addr: kpB.Address(), HostPort: b.ListenAddr()})

	select {
	case <-b.Incoming():
	case <-time.After(10 * time.Second):
		t.Fatal("queued message never reached the re-registered endpoint")
	}
	if s := a.Stats(); s.DialFailures == 0 {
		t.Fatalf("expected dial failures against the dead endpoint, got %+v", s)
	}
}

// TestSendQueueOverflowDrops: a tiny queue with a dead peer counts
// drops instead of blocking.
func TestSendQueueOverflowDrops(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)
	// Peer address points nowhere routable-fast; use a closed local port.
	dead, err := New(Config{Listen: "127.0.0.1:0", Self: kpB.Address()})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.ListenAddr()
	dead.Close()

	a, err := New(Config{
		Listen:      "127.0.0.1:0",
		Self:        kpA.Address(),
		Peers:       []Peer{{Addr: kpB.Address(), HostPort: addr}},
		DialTimeout: 100 * time.Millisecond,
		SendQueue:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1}})
	for i := 0; i < 50; i++ {
		if err := a.Send(kpB.Address(), env); err != nil {
			t.Fatal(err)
		}
	}
	// With a 2-slot queue and a dead peer, most of the 50 must have
	// been dropped (non-blocking behaviour).
	deadlineDrops := time.After(5 * time.Second)
	for a.Dropped() < 40 {
		select {
		case <-deadlineDrops:
			t.Fatalf("dropped=%d, expected most of the burst", a.Dropped())
		case <-time.After(50 * time.Millisecond):
		}
	}
}
