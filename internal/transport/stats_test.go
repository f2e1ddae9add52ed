package transport

import (
	"strings"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

func TestStatsSnapshotAndPrometheus(t *testing.T) {
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

	env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 1}})
	if err := a.Send(kpB.Address(), env); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("delivery timeout")
	}

	// Two frames out: the dial-path identity hello (previously uncounted)
	// plus the prepare envelope.
	deadline := time.After(5 * time.Second)
	var s Stats
	for {
		s = a.Stats()
		if s.FramesOut >= 2 && s.Dials >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("sender stats never populated: %+v", s)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if s.WriteBatches < 1 {
		t.Fatalf("write batches %d, want >= 1", s.WriteBatches)
	}
	if s.BytesOut <= 0 {
		t.Fatalf("bytes out %d, want > 0", s.BytesOut)
	}
	if len(s.Peers) != 1 {
		t.Fatalf("peers %d, want 1", len(s.Peers))
	}
	ps := s.Peers[0]
	if ps.Addr != kpB.Address() || ps.Endpoint != b.ListenAddr() {
		t.Fatalf("peer stats misattributed: %+v", ps)
	}
	if ps.State != PeerConnected || ps.Inbound {
		t.Fatalf("peer should be connected over a dialed conn: %+v", ps)
	}

	bs := b.Stats()
	if bs.FramesIn < 1 || bs.BytesIn <= 0 || bs.Accepted < 1 {
		t.Fatalf("receiver stats not populated: %+v", bs)
	}

	var sb strings.Builder
	s.WritePrometheus(&sb, "gpbft")
	out := sb.String()
	for _, want := range []string{
		"gpbft_transport_frames_out_total 2",
		"gpbft_transport_write_batches_total",
		"gpbft_transport_dials_total 1",
		"gpbft_transport_dropped_frames_total 0",
		"gpbft_transport_ingress_rejected_total 0",
		"gpbft_transport_reject_replies_total 0",
		"# TYPE gpbft_transport_open_conns gauge",
		`state="connected"`,
		"gpbft_transport_peer_queue_len",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestCoalescedBatchCountsPerFrame pins the frame-accounting contract
// under write coalescing: a burst of N envelopes may leave in far fewer
// connection writes, but FramesOut must still advance by N (plus the
// one-time hello), with the batching visible only through WriteBatches.
// Relayed gossip traffic depends on this — a relay frame received once
// fans out to several peers, and undercounting coalesced writes would
// make the f·n forwarding bound look falsely cheap.
func TestCoalescedBatchCountsPerFrame(t *testing.T) {
	kpA := gcrypto.DeterministicKeyPair(3)
	kpB := gcrypto.DeterministicKeyPair(4)
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

	const burst = 32
	for i := 0; i < burst; i++ {
		env := consensus.Seal(kpA, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: uint64(i + 1)}})
		if err := a.Send(kpB.Address(), env); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < burst; i++ {
		select {
		case <-b.Incoming():
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d/%d envelopes", i, burst)
		}
	}

	deadline := time.After(5 * time.Second)
	var s Stats
	for {
		s = a.Stats()
		if s.FramesOut >= burst+1 { // +1 for the dial hello
			break
		}
		select {
		case <-deadline:
			t.Fatalf("frames out %d, want %d (batch counted as one?)", s.FramesOut, burst+1)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if s.FramesOut != burst+1 {
		t.Fatalf("frames out %d, want exactly %d", s.FramesOut, burst+1)
	}
	if s.WriteBatches < 1 || s.WriteBatches > s.FramesOut {
		t.Fatalf("write batches %d outside [1, %d]", s.WriteBatches, s.FramesOut)
	}
	if bs := b.Stats(); bs.FramesIn != burst {
		t.Fatalf("receiver frames in %d, want %d", bs.FramesIn, burst)
	}
}

func TestPeerStateString(t *testing.T) {
	cases := map[PeerState]string{
		PeerIdle: "idle", PeerConnecting: "connecting",
		PeerConnected: "connected", PeerBackoff: "backoff",
		PeerState(9): "state(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d -> %q, want %q", s, s.String(), want)
		}
	}
}
