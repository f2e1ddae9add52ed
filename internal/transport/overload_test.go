package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/types"
)

func mkClientTx(kp *gcrypto.KeyPair, nonce uint64) *types.Transaction {
	tx := &types.Transaction{Type: types.TxNormal, Nonce: nonce, Payload: []byte{byte(nonce)}}
	tx.Sign(kp)
	return tx
}

// Satellite regression: a peer whose connection stalls (accepts TCP,
// never drains) must cost the sender dropped frames, never a blocked
// broadcast path — a healthy peer keeps receiving while the stalled
// one backs up.
func TestStalledPeerDropsNotBlocks(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(1)
	kpStall := gcrypto.DeterministicKeyPair(2)
	kpGood := gcrypto.DeterministicKeyPair(3)

	// The stalled peer: accepts connections and then never reads.
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	stallDone := make(chan struct{})
	var stallConns []net.Conn
	go func() {
		defer close(stallDone)
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			stallConns = append(stallConns, c) // hold open, read nothing
		}
	}()
	defer func() {
		stall.Close()
		<-stallDone
		for _, c := range stallConns {
			c.Close()
		}
	}()

	good, err := New(Config{Listen: "127.0.0.1:0", Key: kpGood})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	a, err := New(Config{
		Listen: "127.0.0.1:0",
		Key:    kpA,
		Peers: []Peer{
			{Addr: kpStall.Address(), HostPort: stall.Addr().String()},
			{Addr: kpGood.Address(), HostPort: good.ListenAddr()},
		},
		SendQueue:    4,
		WriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A large payload fills the kernel socket buffer fast, so writes to
	// the stalled peer actually block into the write deadline.
	big := &pbft.Request{Tx: types.Transaction{Type: types.TxNormal, Payload: make([]byte, 256<<10)}}
	start := time.Now()
	for i := 0; i < 64; i++ {
		env := consensus.Seal(kpA, big)
		if err := a.Send(kpStall.Address(), env); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Send blocked for %v on a stalled peer", elapsed)
	}

	// The healthy peer must stay live while the other stalls: each
	// frame sent to it arrives promptly (its own writer, own queue).
	for i := 0; i < 16; i++ {
		if err := a.Send(kpGood.Address(), consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: uint64(i)}})); err != nil {
			t.Fatal(err)
		}
		select {
		case <-good.Incoming():
		case <-time.After(10 * time.Second):
			t.Fatalf("healthy peer starved after %d frames (stalled peer wedged the sender)", i)
		}
	}
	// And the stalled peer's backlog must surface as dropped frames.
	deadline := time.After(10 * time.Second)
	for a.Dropped() == 0 {
		select {
		case <-deadline:
			t.Fatalf("no frames dropped for the stalled peer: %+v", a.Stats())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// A client whose transaction fails admission must get a signed
// TxRejected reply carrying the reason and retry-after hint, while the
// connection survives for admitted traffic.
func TestClientRejectReply(t *testing.T) {
	kpNode := gcrypto.DeterministicKeyPair(1)
	kpClient := gcrypto.DeterministicKeyPair(9)

	reject := &runtime.RejectError{Reason: types.RejectRateLimit, RetryAfter: 750 * time.Millisecond}
	node, err := New(Config{
		Listen: "127.0.0.1:0",
		Key:    kpNode,
		AdmitTx: func(tx *types.Transaction) error {
			if tx.Nonce%2 == 1 {
				return reject
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	conn := dialRaw(t, node.ListenAddr())
	defer conn.Close()

	// Odd nonce: rejected, reply expected.
	if err := WriteFrame(conn, consensus.Seal(kpClient, &pbft.Request{Tx: *mkClientTx(kpClient, 1)})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("no reject reply: %v", err)
	}
	var rej pbft.TxRejected
	if err := consensus.Open(env, consensus.KindTxReject, &rej); err != nil {
		t.Fatalf("reply failed verification: %v", err)
	}
	if env.From != kpNode.Address() {
		t.Fatalf("reply signed by %s, want the node", env.From.Short())
	}
	wantID := mkClientTx(kpClient, 1).ID()
	if rej.TxID != wantID || rej.Reason != types.RejectRateLimit || rej.RetryAfter != 750*time.Millisecond {
		t.Fatalf("reject reply = %+v", rej)
	}

	// Even nonce on the SAME connection: admitted and delivered.
	if err := WriteFrame(conn, consensus.Seal(kpClient, &pbft.Request{Tx: *mkClientTx(kpClient, 2)})); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-node.Incoming():
		if got.MsgKind != consensus.KindRequest {
			t.Fatalf("delivered kind %v", got.MsgKind)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admitted request not delivered")
	}
	if got := node.Stats().IngressRejected; got != 1 {
		t.Fatalf("IngressRejected = %d, want 1", got)
	}
	if got := node.Stats().RejectReplies; got != 1 {
		t.Fatalf("RejectReplies = %d, want 1", got)
	}
}

// The per-connection ingress byte budget must slow a flooding client
// connection (throttle counter moves) without cutting it off.
func TestIngressByteBudget(t *testing.T) {
	kpNode := gcrypto.DeterministicKeyPair(1)
	kpClient := gcrypto.DeterministicKeyPair(9)
	node, err := New(Config{
		Listen:             "127.0.0.1:0",
		Key:                kpNode,
		IngressBytesPerSec: 8 << 10,
		IngressBurstBytes:  2 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	conn := dialRaw(t, node.ListenAddr())
	defer conn.Close()
	const frames = 10
	go func() {
		for i := 0; i < frames; i++ {
			tx := mkClientTx(kpClient, uint64(i))
			tx.Payload = make([]byte, 1024)
			if WriteFrame(conn, consensus.Seal(kpClient, &pbft.Request{Tx: *tx})) != nil {
				return
			}
		}
	}()
	for i := 0; i < frames; i++ {
		select {
		case <-node.Incoming():
		case <-time.After(30 * time.Second):
			t.Fatalf("throttled connection lost frame %d", i)
		}
	}
	if node.Stats().IngressThrottled == 0 {
		t.Fatal("flooding connection was never throttled")
	}
}

// errors.As must see through wrapped admission errors on the reply
// path (the hook may wrap RejectError in context).
func TestRejectErrorUnwrap(t *testing.T) {
	inner := &runtime.RejectError{Reason: types.RejectShed, RetryAfter: time.Second}
	var rej *runtime.RejectError
	if !errors.As(errorWrap{inner}, &rej) || rej.Reason != types.RejectShed {
		t.Fatal("RejectError not extractable from wrapped error")
	}
}

type errorWrap struct{ err error }

func (w errorWrap) Error() string { return "wrapped: " + w.err.Error() }
func (w errorWrap) Unwrap() error { return w.err }
