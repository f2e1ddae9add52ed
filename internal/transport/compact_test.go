package transport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

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

// TestCompactFrameRoundTrip: whatever mix of senders a connection
// carries, the reader hands DecodeEnvelope exactly the canonical bytes;
// a repeated sender costs 52 bytes less, a change of sender or a relay
// frame travels in full.
func TestCompactFrameRoundTrip(t *testing.T) {
	a, b := gcrypto.DeterministicKeyPair(1), gcrypto.DeterministicKeyPair(2)
	vote := func(kp *gcrypto.KeyPair, seq uint64) *consensus.Envelope {
		return consensus.Seal(kp, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: seq}})
	}
	inner := vote(b, 9)
	relay := consensus.NewRelayEnvelope(a.Address(), []consensus.RelayEntry{
		{Hop: 1, Wire: consensus.EncodeEnvelope(inner), Env: inner},
	})
	reject := consensus.Seal(b, &pbft.TxRejected{})
	seq := []struct {
		env     *consensus.Envelope
		compact bool
	}{
		{vote(a, 1), false}, // first frame on the connection
		{vote(a, 2), true},
		{consensus.Seal(a, &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 2}}), true},
		{relay, false},     // no public key: never compact,
		{vote(a, 3), true}, // and it leaves the remembered sender alone
		{reject, false},    // another sender interleaves
		{vote(a, 4), false},
		{vote(a, 5), true},
	}

	var w, r prefixState
	var stream []byte
	for i, s := range seq {
		canonical := consensus.EncodeEnvelope(s.env)
		before := len(stream)
		stream = w.appendFrame(stream, canonical)
		want := 4 + len(canonical)
		if s.compact {
			want -= senderPrefixLen - 1
		}
		if got := len(stream) - before; got != want {
			t.Fatalf("frame %d: %d wire bytes, want %d (compact=%v)", i, got, want, s.compact)
		}
	}
	rd := bytes.NewReader(stream)
	for i, s := range seq {
		wire, err := readRawFrame(rd)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := wire[0] >= compactMarker; got != s.compact {
			t.Fatalf("frame %d: compact=%v, want %v", i, got, s.compact)
		}
		payload, err := r.expand(wire)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(payload, consensus.EncodeEnvelope(s.env)) {
			t.Fatalf("frame %d: expanded bytes differ from the canonical encoding", i)
		}
	}
	if rd.Len() != 0 {
		t.Fatalf("%d stray bytes after the last frame", rd.Len())
	}

	// A compact frame with no full frame before it cannot be expanded.
	var fresh prefixState
	if _, err := fresh.expand([]byte{compactMarker, byte(consensus.KindPrepare), 0, 0}); err == nil {
		t.Fatal("compact frame on a fresh connection expanded")
	}
}

// TestVoteWireSize pins what a round's messages weigh at sequence 1000,
// canonical (what is signed over, stored and relayed) and as the frame a
// warm connection carries (length prefix, marker, kind, body, seal): a
// round is O(n²) of the first two, so a byte here is n² bytes a block. A
// vote is kind 1 + sender 53 + body 1 + 36 + seal 1 + 64; the frame
// trades the sender for a 4-byte length and a 1-byte marker.
func TestVoteWireSize(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	tx := &types.Transaction{Type: types.TxNormal, Nonce: 1, Payload: []byte("sensor-reading"), Fee: 10,
		Geo: types.GeoInfo{Location: geo.Point{Lng: 114.17, Lat: 22.30}, Timestamp: time.Unix(1565025600, 0)}}
	tx.Sign(kp)
	block := types.NewBlock(types.BlockHeader{Height: 1000, Era: 3, View: 1, Seq: 1000, Proposer: kp.Address(),
		Timestamp: time.Unix(1565025600, 0)}, []types.Transaction{*tx})
	slot := consensus.SlotHeader{Era: 3, View: 1, Seq: 1000, Digest: block.Hash()}
	for _, c := range []struct {
		name            string
		msg             consensus.Payload
		canonical, warm int
	}{
		{"prepare", &pbft.Prepare{SlotHeader: slot}, 156, 108},
		{"commit", &pbft.Commit{SlotHeader: slot}, 156, 108},
		{"pre-prepare of one tx", &pbft.PrePrepare{SlotHeader: slot, Block: *block}, 472, 424},
	} {
		var conn prefixState
		conn.appendFrame(nil, consensus.EncodeEnvelope(consensus.Seal(kp, &pbft.Checkpoint{})))
		canonical := consensus.EncodeEnvelope(consensus.Seal(kp, c.msg))
		if warm := len(conn.appendFrame(nil, canonical)); len(canonical) != c.canonical || warm != c.warm {
			t.Errorf("%s: %d bytes canonical and %d on a warm connection, want %d and %d",
				c.name, len(canonical), warm, c.canonical, c.warm)
		}
	}
}

// TestCompactFramesOverTCP: two endpoints, one connection carrying both
// directions. Envelopes arrive canonical and verifiable, Stats count
// wire bytes on both sides, and after the connection is cut the new one
// starts again from full frames in both directions.
func TestCompactFramesOverTCP(t *testing.T) {
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
	var canonAB, canonBA int64 // canonical frame bytes offered per direction
	exchange := func(seq uint64) {
		t.Helper()
		ab := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: seq}})
		ba := consensus.Seal(kpB, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 2, Seq: seq}})
		for _, hop := range []struct {
			from, to *TCP
			dst      gcrypto.Address
			env      *consensus.Envelope
		}{{a, b, kpB.Address(), ab}, {b, a, kpA.Address(), ba}} {
			if err := hop.from.Send(hop.dst, hop.env); err != nil {
				t.Fatal(err)
			}
			got := recvEnvelope(t, hop.to)
			if !bytes.Equal(consensus.EncodeEnvelope(got), consensus.EncodeEnvelope(hop.env)) {
				t.Fatal("delivered envelope differs from the canonical encoding")
			}
			if err := got.Verify(); err != nil {
				t.Fatal(err)
			}
		}
		canonAB += int64(4 + ab.WireSize())
		canonBA += int64(4 + ba.WireSize())
	}
	// wireBytes waits for the counters to settle (the writer counts
	// after its write returns) and checks both ends agree.
	wireBytes := func(wantAB, wantBA int64) {
		t.Helper()
		waitUntil(t, "wire-byte counters", func() bool {
			sa, sb := a.Stats(), b.Stats()
			return sa.BytesOut == wantAB && sb.BytesIn == wantAB-sa.Dials*hello &&
				sb.BytesOut == wantBA && sa.BytesIn == wantBA
		})
	}
	const saved = senderPrefixLen - 1

	exchange(1) // a dials b; b adopts the connection for its own traffic
	wireBytes(hello+canonAB, canonBA)
	exchange(2)
	exchange(3)
	wireBytes(hello+canonAB-2*saved, canonBA-2*saved)
	if s := b.Stats(); len(s.Peers) != 1 || !s.Peers[0].Inbound || s.Dials != 0 {
		t.Fatalf("b did not reuse a's connection: %+v", s)
	}

	// Cut the connection under both writers.
	a.mu.Lock()
	p := a.peers[kpB.Address()]
	a.mu.Unlock()
	p.mu.Lock()
	p.conn.Close()
	p.mu.Unlock()
	waitUntil(t, "both ends to drop the dead connection", func() bool {
		return a.Stats().OpenConns == 0 && b.Stats().OpenConns == 0
	})

	// a redials (b has no address for a and waits to be dialed). The
	// first frame each way is full again — the fresh reader would have
	// closed the connection on anything else — and the next compact.
	exchange(4)
	exchange(5)
	if sa, sb := a.Stats(), b.Stats(); sa.Dials != 2 || sb.Dials != 0 {
		t.Fatalf("dials after one cut: a=%d b=%d, want 2 and 0", sa.Dials, sb.Dials)
	}
	wireBytes(2*hello+canonAB-3*saved, canonBA-3*saved)
}

// TestCompactBeforeFullClosesConnection: the reader's state is per
// connection, so a compact frame arriving first — a writer that did not
// reset, or a hostile peer — is a protocol violation, not a guess.
func TestCompactBeforeFullClosesConnection(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	b, err := New(Config{Listen: "127.0.0.1:0", Self: gcrypto.DeterministicKeyPair(2).Address()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var w prefixState
	first := consensus.Seal(kp, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})
	second := consensus.Seal(kp, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 2}})
	full := w.appendFrame(nil, consensus.EncodeEnvelope(first))
	compact := w.appendFrame(nil, consensus.EncodeEnvelope(second))
	if compact[4] != compactMarker {
		t.Fatal("second frame from one sender is not compact")
	}

	// In order, on one connection, both arrive.
	good, err := net.Dial("tcp", b.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := good.Write(append(append([]byte(nil), full...), compact...)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []*consensus.Envelope{first, second} {
		if got := recvEnvelope(t, b); !bytes.Equal(consensus.EncodeEnvelope(got), consensus.EncodeEnvelope(want)) {
			t.Fatal("delivered envelope differs from the canonical encoding")
		}
	}

	// The same compact frame opening another connection: closed, nothing
	// delivered, although this endpoint has seen the sender before.
	bad, err := net.Dial("tcp", b.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write(compact); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bad.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("connection not closed on a compact first frame: %v", err)
	}
	select {
	case env := <-b.Incoming():
		t.Fatalf("delivered %v from a compact first frame", env.MsgKind)
	default:
	}
	if s := b.Stats(); s.FramesIn != 2 {
		t.Fatalf("FramesIn=%d, want 2", s.FramesIn)
	}
}

// FuzzCompactFrameStream: a hostile frame stream must never panic the
// expander, and whatever it accepts must survive the writer: re-framed
// for a fresh connection and expanded again, every payload comes back
// byte for byte.
func FuzzCompactFrameStream(f *testing.F) {
	a, b := gcrypto.DeterministicKeyPair(1), gcrypto.DeterministicKeyPair(2)
	var w prefixState
	var good []byte
	for i, kp := range []*gcrypto.KeyPair{a, a, b, a, a} {
		good = w.appendFrame(good, consensus.EncodeEnvelope(consensus.Seal(kp, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Seq: uint64(i)}})))
	}
	f.Add(good)
	f.Add(good[4+1+senderPrefixLen:]) // cut inside the first frame
	f.Add([]byte{0, 0, 0, 2, compactMarker, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var in, out, back prefixState
		for {
			wire, err := readRawFrame(rd)
			if err != nil {
				return
			}
			payload, err := in.expand(wire)
			if err != nil {
				return // the connection would be closed here
			}
			if len(payload) > 0 && payload[0] >= compactMarker {
				t.Fatalf("expanded payload still carries the compact marker: % x", payload[:1])
			}
			if len(payload) == 0 {
				continue // an empty frame fails DecodeEnvelope next; nothing to re-frame
			}
			rewire := out.appendFrame(nil, payload)
			again, err := back.expand(rewire[4:])
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("re-framed payload did not survive: %v", err)
			}
		}
	})
}
