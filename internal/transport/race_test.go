package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

// TestSendAddPeerRace is the regression test for the seed data race:
// Send read t.book[to] without holding t.mu while AddPeer wrote the
// map under lock. Run with -race; the seed code fails here.
func TestSendAddPeerRace(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)

	// Deliberately uses only the seed-era Config fields (Self, Peers)
	// so this test compiles against the pre-fix transport and reports
	// the race there.
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

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := a.Send(kpB.Address(), env); err != nil {
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Alternate between the live endpoint and a second (dead but
		// syntactically valid) one, re-registering continuously.
		endpoints := []string{b.ListenAddr(), "127.0.0.1:1"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				a.AddPeer(Peer{Addr: kpB.Address(), HostPort: endpoints[i%2]})
			}
		}
	}()
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Drain whatever arrived so b's read loops are exercised too.
	for {
		select {
		case <-b.Incoming():
		case <-time.After(50 * time.Millisecond):
			return
		}
	}
}

// TestConnPruning: the seed code appended every accepted connection to
// a slice and never removed it, leaking an entry per peer churn / era
// switch. Closed connections must leave the tracked set.
func TestConnPruning(t *testing.T) {
	kpB := gcrypto.DeterministicKeyPair(2)
	b, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const cycles = 40
	kpC := gcrypto.DeterministicKeyPair(3)
	env := consensus.Seal(kpC, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})
	for i := 0; i < cycles; i++ {
		conn, err := net.DialTimeout("tcp", b.ListenAddr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Half the cycles handshake like a peer, half behave like a
		// bare client; both kinds must be pruned once closed.
		if i%2 == 0 {
			if err := writeRawFrame(conn, EncodeHello(NewHello(kpC))); err != nil {
				t.Fatal(err)
			}
		}
		if err := WriteFrame(conn, env); err != nil {
			t.Fatal(err)
		}
		<-b.Incoming()
		conn.Close()
	}

	deadline := time.After(5 * time.Second)
	for {
		s := b.Stats()
		if s.OpenConns == 0 && s.Accepted == cycles {
			if s.ConnsPruned < cycles {
				t.Fatalf("pruned %d conns, want %d", s.ConnsPruned, cycles)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("connections not pruned: open=%d accepted=%d pruned=%d (want 0 open after %d cycles)",
				s.OpenConns, s.Accepted, s.ConnsPruned, cycles)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestManyPeersChurn drives Send/AddPeer/Stats from many goroutines at
// once against a mix of live and dead endpoints — a miniature era
// switch — and requires the endpoint to survive and stay bounded.
func TestManyPeersChurn(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	a, err := New(Config{
		Listen:      "127.0.0.1:0",
		Key:         kpA,
		DialTimeout: 200 * time.Millisecond,
		SendQueue:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const peers = 8
	live := make([]*TCP, 0, peers/2)
	defer func() {
		for _, b := range live {
			b.Close()
		}
	}()
	addrs := make([]gcrypto.Address, peers)
	for i := 0; i < peers; i++ {
		kp := gcrypto.DeterministicKeyPair(10 + i)
		addrs[i] = kp.Address()
		if i%2 == 0 {
			b, err := New(Config{Listen: "127.0.0.1:0", Key: kp})
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, b)
			a.AddPeer(Peer{Addr: kp.Address(), HostPort: b.ListenAddr()})
		} else {
			a.AddPeer(Peer{Addr: kp.Address(), HostPort: fmt.Sprintf("127.0.0.1:%d", 1)})
		}
	}
	for _, b := range live {
		go func(b *TCP) {
			for range b.Incoming() {
			}
		}(b)
	}

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = a.Send(addrs[(w+i)%peers], env)
				if i%50 == 0 {
					_ = a.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if s := a.Stats(); len(s.Peers) != peers {
		t.Fatalf("peer states tracked: %d, want %d", len(s.Peers), peers)
	}
	// Writers drain asynchronously; the live half of the peers must see
	// frames eventually.
	deadline := time.After(5 * time.Second)
	for a.Stats().FramesOut == 0 {
		select {
		case <-deadline:
			t.Fatal("no frames delivered to live peers")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
