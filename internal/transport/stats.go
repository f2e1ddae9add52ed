package transport

import (
	"fmt"
	"sort"
	"sync/atomic"

	"gpbft/internal/gcrypto"
)

// counters holds the transport-wide atomic totals. Hot paths (read and
// write loops) bump these lock-free; Stats assembles a snapshot.
type counters struct {
	framesIn          atomic.Int64
	framesOut         atomic.Int64
	writeBatches      atomic.Int64
	bytesIn           atomic.Int64
	bytesOut          atomic.Int64
	dropped           atomic.Int64
	dials             atomic.Int64
	dialFailures      atomic.Int64
	redials           atomic.Int64
	accepted          atomic.Int64
	handshakeFailures atomic.Int64
	connsPruned       atomic.Int64
	ingressRejected   atomic.Int64
	ingressThrottled  atomic.Int64
	rejectReplies     atomic.Int64
}

// PeerState is the connection state of one peer's writer.
type PeerState uint8

// Writer states, in the order a connection normally progresses.
const (
	// PeerIdle: no connection and nothing queued yet.
	PeerIdle PeerState = iota
	// PeerConnecting: a dial is in flight.
	PeerConnecting
	// PeerConnected: a live connection is carrying frames.
	PeerConnected
	// PeerBackoff: the last dial failed; the writer is waiting out a
	// capped-exponential delay before retrying.
	PeerBackoff
)

// String names the peer state (used in metrics labels).
func (s PeerState) String() string {
	switch s {
	case PeerIdle:
		return "idle"
	case PeerConnecting:
		return "connecting"
	case PeerConnected:
		return "connected"
	case PeerBackoff:
		return "backoff"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// PeerStats is the live view of one peer's outbound channel.
type PeerStats struct {
	Addr     gcrypto.Address
	Endpoint string
	State    PeerState
	// Inbound reports that the writer is reusing a connection the peer
	// dialed to us (bidirectional reuse), rather than one we dialed.
	Inbound  bool
	QueueLen int
	Redials  int64
}

// Stats is a point-in-time snapshot of the transport. An operator
// watching FramesIn/FramesOut and per-peer states can see era-switch
// reconnect storms, dead peers stuck in backoff, and queue pressure.
type Stats struct {
	FramesIn  int64
	FramesOut int64
	// WriteBatches counts connection writes; FramesOut/WriteBatches is
	// the coalescing ratio (frames delivered per syscall).
	WriteBatches int64
	BytesIn      int64
	BytesOut     int64
	// Dropped counts outbound envelopes discarded on full queues or
	// after a failed write+redial cycle.
	Dropped int64
	// Dials counts successful outbound connection establishments;
	// DialFailures counts attempts that never connected.
	Dials        int64
	DialFailures int64
	// Redials counts re-establishments after a peer had already been
	// dialed once (era switches, peer restarts, endpoint moves).
	Redials int64
	// Accepted counts inbound connections; HandshakeFailures counts
	// inbound connections dropped for a bad hello frame.
	Accepted          int64
	HandshakeFailures int64
	// OpenConns is the current tracked connection count; ConnsPruned is
	// the total of closed connections removed from tracking.
	OpenConns   int
	ConnsPruned int64
	// IngressRejected counts inbound requests refused by the AdmitTx
	// gate; RejectReplies counts signed TxRejected answers actually
	// written back; IngressThrottled counts frames that put a client
	// connection over its byte budget (its read loop slept).
	IngressRejected  int64
	IngressThrottled int64
	RejectReplies    int64
	Peers            []PeerStats
}

// Stats assembles a consistent snapshot of the endpoint.
func (t *TCP) Stats() Stats {
	s := Stats{
		FramesIn:          t.ctr.framesIn.Load(),
		FramesOut:         t.ctr.framesOut.Load(),
		WriteBatches:      t.ctr.writeBatches.Load(),
		BytesIn:           t.ctr.bytesIn.Load(),
		BytesOut:          t.ctr.bytesOut.Load(),
		Dropped:           t.ctr.dropped.Load(),
		Dials:             t.ctr.dials.Load(),
		DialFailures:      t.ctr.dialFailures.Load(),
		Redials:           t.ctr.redials.Load(),
		Accepted:          t.ctr.accepted.Load(),
		HandshakeFailures: t.ctr.handshakeFailures.Load(),
		IngressRejected:   t.ctr.ingressRejected.Load(),
		IngressThrottled:  t.ctr.ingressThrottled.Load(),
		RejectReplies:     t.ctr.rejectReplies.Load(),
	}
	t.mu.Lock()
	// untrack moves a connection from one to the other under mu.
	s.OpenConns, s.ConnsPruned = len(t.conns), t.ctr.connsPruned.Load()
	for addr, p := range t.peers {
		endpoint := t.book[addr]
		p.mu.Lock()
		ps := PeerStats{
			Addr:     addr,
			Endpoint: endpoint,
			State:    p.state,
			Inbound:  p.inboundConn,
			QueueLen: len(p.q),
			Redials:  p.redials,
		}
		p.mu.Unlock()
		s.Peers = append(s.Peers, ps)
	}
	t.mu.Unlock()
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].Addr.Less(s.Peers[j].Addr) })
	return s
}
