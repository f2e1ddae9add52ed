package consensus

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// kindPayload is a Payload with a selectable kind, for building relay
// batches of vote-like envelopes.
type kindPayload struct {
	K    MsgKind
	Data []byte
}

func (p *kindPayload) Kind() MsgKind                    { return p.K }
func (p *kindPayload) MarshalCanonical(w *codec.Writer) { w.WriteBytes(p.Data) }
func (p *kindPayload) UnmarshalCanonical(r *codec.Reader) error {
	p.Data = r.ReadBytes()
	return r.Err()
}

// sealEntry seals a prepare from member idx of testCommittee(t, 4).
func sealEntry(t *testing.T, idx int, hop uint8, data string) RelayEntry {
	t.Helper()
	kp := gcrypto.DeterministicKeyPair(idx)
	env := Seal(kp, &kindPayload{K: KindPrepare, Data: []byte(data)})
	env.Sender = uint64(testCommittee(t, 4).IndexOf(kp.Address()))
	return RelayEntry{Hop: hop, Wire: EncodeEnvelope(env), Env: env}
}

func TestRelayBodyRoundTrip(t *testing.T) {
	in := []RelayEntry{
		sealEntry(t, 1, 1, "a"),
		sealEntry(t, 2, 3, "b"),
		sealEntry(t, 3, DefaultMaxRelayHops, "c"),
	}
	out, err := DecodeRelayBody(EncodeRelayBody(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Hop != in[i].Hop || !bytes.Equal(out[i].Wire, in[i].Wire) {
			t.Fatalf("entry %d mismatch", i)
		}
		if out[i].Env.MsgKind != KindPrepare || !out[i].Env.Resolve(testCommittee(t, 4)) || out[i].Env.From != in[i].Env.From {
			t.Fatalf("entry %d inner envelope mismatch", i)
		}
		if err := out[i].Env.Verify(); err != nil {
			t.Fatalf("entry %d inner seal: %v", i, err)
		}
	}
}

func TestRelayBodyRejectsHostileFrames(t *testing.T) {
	good := sealEntry(t, 1, 1, "x")
	nested := RelayEntry{Hop: 1}
	nested.Wire = EncodeEnvelope(NewRelayEnvelope(gcrypto.DeterministicKeyPair(9).Address(), []RelayEntry{good}))

	cases := []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"bad magic", func() []byte {
			w := codec.NewWriter(16)
			w.String("gpbft/nope/v9")
			w.Count(1)
			return w.Bytes()
		}()},
		{"empty batch", func() []byte {
			w := codec.NewWriter(16)
			w.String(relayMagic)
			w.Count(0)
			return w.Bytes()
		}()},
		{"hop zero", EncodeRelayBody([]RelayEntry{{Hop: 0, Wire: good.Wire}})},
		{"hop past bound", EncodeRelayBody([]RelayEntry{{Hop: maxRelayHopBound + 1, Wire: good.Wire}})},
		{"undecodable inner envelope", EncodeRelayBody([]RelayEntry{{Hop: 1, Wire: []byte{0xff, 0x01}}})},
		{"nested relay frame", EncodeRelayBody([]RelayEntry{nested})},
		{"oversized count header", func() []byte {
			w := codec.NewWriter(16)
			w.String(relayMagic)
			w.Count(MaxRelayEntries + 1)
			return w.Bytes()
		}()},
		{"trailing bytes", append(EncodeRelayBody([]RelayEntry{good}), 0x00)},
		{"truncated", EncodeRelayBody([]RelayEntry{good})[:8]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRelayBody(tc.body); !errors.Is(err, ErrRelayFrame) {
				t.Fatalf("err %v, want ErrRelayFrame", err)
			}
		})
	}
}

// TestRelayBodyRejectsNonMinimal pins the strict-codec property the
// fuzz target leans on: widening a varint without changing its value
// must flip the frame from valid to rejected.
func TestRelayBodyRejectsNonMinimal(t *testing.T) {
	body := EncodeRelayBody([]RelayEntry{sealEntry(t, 1, 1, "x")})
	if _, err := DecodeRelayBody(body); err != nil {
		t.Fatal(err)
	}
	// The magic-string length (14) is the first varint: re-encode it as
	// the two-byte non-minimal form 0x8e 0x00.
	if body[0] != byte(len(relayMagic)) {
		t.Fatalf("layout assumption broken: first byte %#x", body[0])
	}
	wide := append([]byte{body[0] | 0x80, 0x00}, body[1:]...)
	if _, err := DecodeRelayBody(wide); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
}

func TestRelayEnvelopeIsUnsealedAndMemoized(t *testing.T) {
	relayer := gcrypto.DeterministicKeyPair(5)
	frame := NewRelayEnvelope(relayer.Address(), []RelayEntry{sealEntry(t, 1, 1, "v")})
	if frame.MsgKind != KindRelay || len(frame.Signature) != 0 || len(frame.FromPub) != 0 {
		t.Fatalf("relay frame should be unsealed: %+v", frame)
	}
	if err := frame.Verify(); err == nil {
		t.Fatal("unsealed relay frame must not pass Verify")
	}
	// Wire round trip: the decode memo makes repeated access cheap and
	// stable.
	decoded, err := DecodeEnvelope(EncodeEnvelope(frame))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := decoded.RelayEntries()
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := decoded.RelayEntries()
	if len(e1) != 1 || &e1[0] != &e2[0] {
		t.Fatal("RelayEntries not memoized")
	}
	if _, err := sealEntry(t, 1, 1, "v").Env.RelayEntries(); !errors.Is(err, ErrEnvelopeKind) {
		t.Fatal("RelayEntries on a non-relay envelope must fail")
	}
}

func TestRelayReceiveSuppressesAndForwards(t *testing.T) {
	self := gcrypto.DeterministicKeyPair(100)
	peers := []gcrypto.Address{
		gcrypto.DeterministicKeyPair(101).Address(),
		gcrypto.DeterministicKeyPair(102).Address(),
		gcrypto.DeterministicKeyPair(103).Address(),
	}
	r := NewRelay(RelayConfig{Self: self.Address(), Peers: peers, Fanout: 2, Seed: 7})

	a := sealEntry(t, 1, 1, "a")
	b := sealEntry(t, 2, uint8(DefaultMaxRelayHops), "b") // at the hop bound: deliver, don't forward
	frame := NewRelayEnvelope(peers[0], []RelayEntry{a, b})

	novel, err := r.Receive(0, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(novel) != 2 {
		t.Fatalf("novel %d, want 2", len(novel))
	}
	// Second delivery of the same frame: fully suppressed.
	novel, err = r.Receive(0, frame)
	if err != nil || len(novel) != 0 {
		t.Fatalf("duplicate frame delivered %d envelopes (err %v)", len(novel), err)
	}

	sent := map[gcrypto.Address]int{}
	var entries int
	r.Flush(0, func(to gcrypto.Address, env *Envelope) {
		sent[to]++
		es, err := env.RelayEntries()
		if err != nil {
			t.Fatal(err)
		}
		entries += len(es)
		for _, e := range es {
			if e.Hop != a.Hop+1 {
				t.Fatalf("forwarded hop %d, want %d", e.Hop, a.Hop+1)
			}
		}
	})
	if len(sent) != 2 {
		t.Fatalf("flush hit %d peers, want fanout 2", len(sent))
	}
	if entries != 2 { // only `a` re-forwards (b hit the hop bound), to 2 targets
		t.Fatalf("forwarded %d entries, want 2", entries)
	}
	st := r.Stats()
	if st.Delivered != 2 || st.Suppressed != 2 || st.Dropped != 1 || st.ForwardedFrames != 2 {
		t.Fatalf("stats %+v", st)
	}
	// Nothing pending: flush is a no-op and counters hold still.
	r.Flush(0, func(gcrypto.Address, *Envelope) { t.Fatal("flush with empty queue sent a frame") })
}

func TestRelayBroadcastSuppressesEcho(t *testing.T) {
	self := gcrypto.DeterministicKeyPair(100)
	peer := gcrypto.DeterministicKeyPair(101)
	r := NewRelay(RelayConfig{Self: self.Address(), Peers: []gcrypto.Address{peer.Address()}, Fanout: 1, Seed: 1})

	env := Seal(self, &kindPayload{K: KindCommit, Data: []byte("own-vote")})
	r.Broadcast(0, env)
	if !r.HasPending() {
		t.Fatal("broadcast did not queue")
	}
	r.Flush(0, func(gcrypto.Address, *Envelope) {})

	// The vote comes back around the gossip ring: it must not re-enter.
	echo := NewRelayEnvelope(peer.Address(), []RelayEntry{{Hop: 2, Wire: EncodeEnvelope(env), Env: env}})
	novel, err := r.Receive(0, echo)
	if err != nil || len(novel) != 0 {
		t.Fatalf("own broadcast echoed back into the engine (novel=%d err=%v)", len(novel), err)
	}
}

func TestRelayFlushSplitsOversizedBatches(t *testing.T) {
	self := gcrypto.DeterministicKeyPair(100)
	peer := gcrypto.DeterministicKeyPair(101).Address()
	r := NewRelay(RelayConfig{Self: self.Address(), Peers: []gcrypto.Address{peer}, Fanout: 1, Seed: 1})
	total := MaxRelayEntries + 10
	for i := 0; i < total; i++ {
		r.Broadcast(0, Seal(self, &kindPayload{K: KindPrepare, Data: []byte(fmt.Sprintf("v%d", i))}))
	}
	var frames, entries int
	r.Flush(0, func(_ gcrypto.Address, env *Envelope) {
		es, err := env.RelayEntries()
		if err != nil {
			t.Fatal(err)
		}
		if len(es) > MaxRelayEntries {
			t.Fatalf("frame carries %d entries, cap %d", len(es), MaxRelayEntries)
		}
		frames++
		entries += len(es)
	})
	if frames != 2 || entries != total {
		t.Fatalf("flush sent %d frames / %d entries, want 2 / %d", frames, entries, total)
	}
}

func TestRelaySetPeersFiltersSelfAndRetunesFanout(t *testing.T) {
	self := gcrypto.DeterministicKeyPair(1)
	var committee []gcrypto.Address
	for i := 1; i <= 8; i++ {
		committee = append(committee, gcrypto.DeterministicKeyPair(i).Address())
	}
	r := NewRelay(RelayConfig{Self: self.Address(), Peers: committee, Seed: 1})
	if r.PeerCount() != 7 {
		t.Fatalf("peer count %d, want 7 (self filtered)", r.PeerCount())
	}
	if want := autoFanout(7); r.Stats().Fanout != want {
		t.Fatalf("auto fanout %d, want %d", r.Stats().Fanout, want)
	}
	r.SetPeers(committee[:4])
	if r.PeerCount() != 3 || r.Stats().Fanout != autoFanout(3) {
		t.Fatalf("after shrink: peers %d fanout %d", r.PeerCount(), r.Stats().Fanout)
	}

	fixed := NewRelay(RelayConfig{Self: self.Address(), Peers: committee, Fanout: 2, Seed: 1})
	fixed.SetPeers(committee[:5])
	if fixed.Stats().Fanout != 2 {
		t.Fatal("explicit fanout must survive SetPeers")
	}
}

// TestRelayStatsWhileSetPeers: the metrics endpoint reads the relay's
// fanout through Stats, off the event loop, while the loop retunes it in
// SetPeers at every era switch. Under -race this fails on any fanout read
// that is not a snapshot.
func TestRelayStatsWhileSetPeers(t *testing.T) {
	var committee []gcrypto.Address
	for i := 1; i <= 8; i++ {
		committee = append(committee, gcrypto.DeterministicKeyPair(i).Address())
	}
	r := NewRelay(RelayConfig{Self: committee[0], Peers: committee, Seed: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			r.SetPeers(committee[:2+i%7])
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if f := r.Stats().Fanout; f < DefaultRelayFanout || f > autoFanout(7) {
			t.Fatalf("fanout %d outside [%d, %d]", f, DefaultRelayFanout, autoFanout(7))
		}
	}
}

func TestAutoFanoutGrowsLogarithmically(t *testing.T) {
	cases := map[int]int{1: 3, 3: 3, 7: 4, 15: 5, 21: 6, 45: 7, 63: 7, 64: 8}
	for n, want := range cases {
		if got := autoFanout(n); got != want {
			t.Fatalf("autoFanout(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRelayPickTargetsIsUniformEnough(t *testing.T) {
	self := gcrypto.DeterministicKeyPair(0)
	var peers []gcrypto.Address
	for i := 1; i <= 10; i++ {
		peers = append(peers, gcrypto.DeterministicKeyPair(i).Address())
	}
	r := NewRelay(RelayConfig{Self: self.Address(), Peers: peers, Fanout: 3, Seed: 42})
	counts := map[gcrypto.Address]int{}
	const draws = 2000
	for i := 0; i < draws; i++ {
		targets := r.pickTargets()
		if len(targets) != 3 {
			t.Fatalf("draw %d: %d targets", i, len(targets))
		}
		seen := map[gcrypto.Address]bool{}
		for _, to := range targets {
			if to == self.Address() {
				t.Fatal("picked self")
			}
			if seen[to] {
				t.Fatal("picked the same peer twice in one draw")
			}
			seen[to] = true
			counts[to]++
		}
	}
	// Expected 600 draws per peer; a wildly skewed selector (always the
	// same subset) fails, honest randomness passes with huge margin.
	for addr, c := range counts {
		if c < 300 || c > 900 {
			t.Fatalf("peer %s drawn %d times, expected ~600", addr.Short(), c)
		}
	}
	if len(counts) != 10 {
		t.Fatalf("only %d peers ever drawn", len(counts))
	}
}
