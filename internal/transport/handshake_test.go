package transport

import (
	"net"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

func TestHelloRoundTrip(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	h := NewHello(kp)
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != kp.Address() {
		t.Fatal("address mangled")
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHelloDecodeRejections(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	good := EncodeHello(NewHello(kp))

	// Truncated after the magic.
	if _, err := DecodeHello(good[:len(helloMagic)+3]); err == nil {
		t.Fatal("truncated hello must fail")
	}
	// Trailing garbage.
	if _, err := DecodeHello(append(append([]byte(nil), good...), 0xAA)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	// Wrong magic is not a hello at all.
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if isHello(bad) {
		t.Fatal("wrong magic sniffed as hello")
	}
	// Unsupported version.
	verBad := append([]byte(nil), good...)
	verBad[len(helloMagic)] = 99
	if _, err := DecodeHello(verBad); err != ErrHelloVersion {
		t.Fatalf("want ErrHelloVersion, got %v", err)
	}
	// Oversized payload.
	big := append([]byte(nil), good...)
	big = append(big, make([]byte, MaxHello)...)
	if _, err := DecodeHello(big); err != ErrHelloTooLarge {
		t.Fatalf("want ErrHelloTooLarge, got %v", err)
	}
}

func TestHelloWrongAddressRejected(t *testing.T) {
	// A hello claiming B's address but signed with A's key must not
	// verify: connection attribution cannot be spoofed without the key.
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)
	h := NewHello(kpA)
	h.Addr = kpB.Address()
	if err := h.Verify(); err == nil {
		t.Fatal("hello with mismatched address must fail verification")
	}
	// Same with a re-signed digest but the wrong public key.
	h = &Hello{Addr: kpB.Address(), Pub: append([]byte(nil), kpA.Public()...)}
	h.Sig = kpA.Sign(helloDigest(kpB.Address()))
	if err := h.Verify(); err == nil {
		t.Fatal("signature by a key that does not own the address must fail")
	}
}

// dialRaw opens a plain TCP connection to an endpoint under test.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func waitHandshakeFailures(t *testing.T, tp *TCP, want int64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for tp.Stats().HandshakeFailures < want {
		select {
		case <-deadline:
			t.Fatalf("handshake failures %d, want %d", tp.Stats().HandshakeFailures, want)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestInboundHelloRejections(t *testing.T) {
	kpB := gcrypto.DeterministicKeyPair(2)
	b, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Malformed hello frame: magic followed by garbage.
	conn := dialRaw(t, b.ListenAddr())
	if err := writeRawFrame(conn, []byte(helloMagic+"\x01garbage")); err != nil {
		t.Fatal(err)
	}
	waitHandshakeFailures(t, b, 1)
	conn.Close()

	// Oversized hello frame.
	conn = dialRaw(t, b.ListenAddr())
	big := append([]byte(helloMagic), make([]byte, MaxHello+1)...)
	if err := writeRawFrame(conn, big); err != nil {
		t.Fatal(err)
	}
	waitHandshakeFailures(t, b, 2)
	conn.Close()

	// Wrong-address hello: signed by A, claiming C.
	kpA := gcrypto.DeterministicKeyPair(1)
	h := NewHello(kpA)
	h.Addr = gcrypto.DeterministicKeyPair(3).Address()
	conn = dialRaw(t, b.ListenAddr())
	if err := writeRawFrame(conn, EncodeHello(h)); err != nil {
		t.Fatal(err)
	}
	waitHandshakeFailures(t, b, 3)
	conn.Close()

	// A hello claiming the receiver's own identity is refused.
	conn = dialRaw(t, b.ListenAddr())
	if err := writeRawFrame(conn, EncodeHello(NewHello(kpB))); err != nil {
		t.Fatal(err)
	}
	waitHandshakeFailures(t, b, 4)
	conn.Close()

	// The endpoint still accepts a well-formed peer after the abuse.
	a, err := New(Config{
		Listen: "127.0.0.1:0",
		Key:    kpA,
		Peers:  []Peer{{Addr: kpB.Address(), HostPort: b.ListenAddr()}},
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
	case <-b.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("valid peer blocked after hostile hellos")
	}
}

// TestBidirectionalReuse: after A dials B with a verified hello, B must
// send its own traffic back over the SAME connection — B has no address
// book entry for A and must not (cannot) dial.
func TestBidirectionalReuse(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpB := gcrypto.DeterministicKeyPair(2)

	b, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := New(Config{
		Listen: "127.0.0.1:0",
		Key:    kpA,
		Peers:  []Peer{{Addr: kpB.Address(), HostPort: b.ListenAddr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A -> B establishes the attributed connection.
	if err := a.Send(kpB.Address(), consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("A->B delivery timeout")
	}

	// B -> A rides the adopted inbound connection.
	if err := b.Send(kpA.Address(), consensus.Seal(kpB, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 2}})); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-a.Incoming():
		if env.From != kpB.Address() {
			t.Fatal("wrong sender")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("B->A reuse delivery timeout")
	}
	if dials := b.Stats().Dials; dials != 0 {
		t.Fatalf("B dialed %d times; reuse requires zero", dials)
	}
	bs := b.Stats()
	if len(bs.Peers) != 1 || !bs.Peers[0].Inbound || bs.Peers[0].State != PeerConnected {
		t.Fatalf("B peer state %+v, want connected over inbound conn", bs.Peers)
	}
}

// TestLegacyClientConn: a connection that never sends a hello (an IoT
// client framing request envelopes directly) must still deliver.
func TestLegacyClientConn(t *testing.T) {
	kpB := gcrypto.DeterministicKeyPair(2)
	b, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	kpC := gcrypto.DeterministicKeyPair(9)
	conn := dialRaw(t, b.ListenAddr())
	defer conn.Close()
	for i := uint64(1); i <= 3; i++ {
		if err := WriteFrame(conn, consensus.Seal(kpC, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: i}})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case env := <-b.Incoming():
			if err := env.Verify(); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("client frames not delivered")
		}
	}
}

// TestHandshakeTimeout: a connection that sends nothing is shed after
// the handshake deadline instead of being held open forever.
func TestHandshakeTimeout(t *testing.T) {
	kpB := gcrypto.DeterministicKeyPair(2)
	b, err := New(Config{Listen: "127.0.0.1:0", Key: kpB, HandshakeTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	conn := dialRaw(t, b.ListenAddr())
	defer conn.Close()
	deadline := time.After(5 * time.Second)
	for {
		s := b.Stats()
		if s.Accepted == 1 && s.OpenConns == 0 {
			// The silent connection was accepted, timed out, and pruned.
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Fatal("expected remote close")
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("silent conn not shed: %+v", s)
		case <-time.After(20 * time.Millisecond):
		}
	}
}
