package consensus

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// Gossip relay: epidemic dissemination of consensus traffic. Instead
// of the originator writing one copy of every envelope to all n−1
// peers (O(n²) messages per slot across the committee), each node
// queues what it originates or first delivers and periodically flushes
// the queue as ONE batched relay frame to a fanout-f random subset of
// peers. Epidemic spreading reaches the whole committee in O(log n)
// hops with high probability, the batch amortises per-message channel
// costs, and the dupemap keeps re-deliveries off the engines.
const (
	relayMagic = "gpbft/relay/v1"

	// DefaultMaxRelayHops bounds epidemic propagation depth; log₂ of any
	// plausible committee plus slack. A frame arriving at hop h re-queues
	// its novel entries at h+1 and stops forwarding at the bound.
	DefaultMaxRelayHops = 8
	// maxRelayHopBound is the decode-time sanity cap on the hop counter.
	maxRelayHopBound = 64
	// MaxRelayEntries bounds entries per frame; an oversized pending
	// queue is split across frames.
	MaxRelayEntries = 1024
	// DefaultRelayFlush is the batching interval: lower bounds dissemination
	// latency added per hop, upper bounds how many frames per second each
	// node sends (fanout / interval, independent of committee size).
	DefaultRelayFlush = Time(20 * time.Millisecond)
	// DefaultRelayFanout is used when RelayConfig.Fanout is zero and the
	// peer count is unknown at construction; SetPeers recomputes
	// ceil(log₂(n+1))+1 thereafter.
	DefaultRelayFanout = 3
)

// RelayTimerID is the reserved timer identity for relay flush ticks.
// Engine TimerAllocators hand out small sequential IDs starting at 1,
// so a high fixed bit can never collide.
const RelayTimerID = TimerID(1) << 62

// ErrRelayFrame reports a malformed relay frame.
var ErrRelayFrame = errors.New("consensus: invalid relay frame")

// RelayEntry is one hop-counted inner envelope inside a relay frame.
// Wire holds the inner envelope's canonical bytes: relaying re-uses
// the originator's exact encoding, so the digest — and therefore the
// dupemap key and any evidence derived from the bytes — is identical
// at every hop.
type RelayEntry struct {
	Hop  uint8
	Wire []byte
	Env  *Envelope
}

// Canonical states an entry's format. A decode refuses a hop counter
// past any plausible propagation depth, an inner envelope that does not
// decode, and a nested relay frame, so a Byzantine relayer cannot
// smuggle unparseable or recursive payloads past the dupemap.
func (e *RelayEntry) Canonical(c codec.Coder) {
	codec.Uint8(c, &e.Hop)
	c.Bytes(&e.Wire)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if e.Hop == 0 || e.Hop > maxRelayHopBound {
		c.Fail(fmt.Errorf("hop %d out of range", e.Hop))
		return
	}
	env, err := DecodeEnvelope(e.Wire)
	switch {
	case err != nil:
		c.Fail(fmt.Errorf("inner envelope: %v", err))
	case env.MsgKind == KindRelay:
		c.Fail(errors.New("nested relay frame"))
	default:
		e.Env = env
	}
}

// relayFrame is the body of a relay frame: a non-empty batch of at most
// MaxRelayEntries entries, refused by count before any is allocated.
type relayFrame []RelayEntry

var errRelayMagic = errors.New("bad magic")

func (f *relayFrame) Canonical(c codec.Coder) {
	c.Tag(relayMagic, errRelayMagic)
	codec.CheckedList(c, (*[]RelayEntry)(f), 1+1+MinEnvelopeSize, func(n int) error { // a hop, then an envelope's length and bytes
		if n == 0 {
			return errors.New("empty batch")
		}
		if n > MaxRelayEntries {
			return fmt.Errorf("%d entries exceeds cap %d", n, MaxRelayEntries)
		}
		return nil
	}, (*RelayEntry).Canonical)
}

// EncodeRelayBody builds the canonical body of a relay frame.
func EncodeRelayBody(entries []RelayEntry) []byte { return codec.Marshal((*relayFrame)(&entries)) }

// DecodeRelayBody parses and validates a relay frame body. Strictness
// matches the evidence codec: non-minimal varints are rejected by the
// reader and trailing bytes by the whole-value decode, and every
// failure is an ErrRelayFrame.
func DecodeRelayBody(body []byte) ([]RelayEntry, error) {
	f, err := codec.Unmarshal[relayFrame](body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRelayFrame, err)
	}
	return *f, nil
}

// RelayEntries decodes a KindRelay envelope's batch, kept in the
// envelope's memo (Decoded): the transport's read loop decodes (and
// verifies inner envelopes) off the hot path, and the event loop reuses
// that result.
func (e *Envelope) RelayEntries() ([]RelayEntry, error) {
	if e.MsgKind != KindRelay {
		return nil, ErrEnvelopeKind
	}
	v, err := e.Decoded(true, func() (any, error) { return DecodeRelayBody(e.Body) })
	entries, _ := v.([]RelayEntry)
	return entries, err
}

// NewRelayEnvelope wraps a batch of entries in an UNSEALED envelope.
// The frame carries no signature by design: each inner envelope keeps
// its originator's seal (Byzantine accountability names the
// originator), and the relayer is attributed by the authenticated
// channel the frame arrives on — the signed TCP handshake identity or
// the simulated sender. A relay frame must therefore never be passed
// to Verify; receivers unwrap it and verify the inner envelopes.
func NewRelayEnvelope(relayer gcrypto.Address, entries []RelayEntry) *Envelope {
	return &Envelope{
		MsgKind: KindRelay,
		From:    relayer,
		Body:    EncodeRelayBody(entries),

		memo: entries,
	}
}

// RelayConfig parameterises a node's relay.
type RelayConfig struct {
	Self  gcrypto.Address
	Peers []gcrypto.Address // committee including or excluding self; self is filtered

	// Fanout is the number of random peers each flush targets; 0 means
	// ceil(log₂(peers+1))+1, recomputed on every SetPeers.
	Fanout int
	// FlushEvery is the batching interval; 0 means DefaultRelayFlush.
	FlushEvery Time

	// DupeTTL is the dupemap's generation TTL on a stalled chain; 0
	// means DefaultDupemapTTL.
	DupeTTL Time

	// Seed drives target selection. Each node must use a distinct seed
	// (derive from the cluster seed and the node index) or every node
	// picks the same "random" targets and the epidemic degenerates.
	Seed int64
}

// RelayStats is a point-in-time snapshot of relay counters; all fields
// are maintained atomically so metrics scrapes don't synchronise with
// the event loop.
type RelayStats struct {
	// ForwardedFrames counts relay frames sent (each flush sends the
	// same frame to Fanout targets; every copy counts).
	ForwardedFrames uint64
	// ForwardedEntries counts inner envelopes across those frames.
	ForwardedEntries uint64
	// Suppressed counts inner envelopes dropped as dupemap hits.
	Suppressed uint64
	// Dropped counts inner envelopes not re-forwarded because the hop
	// bound was reached (they were still delivered locally).
	Dropped uint64
	// Delivered counts novel inner envelopes handed to the engine.
	Delivered uint64
	// DupemapEntries / DupemapGenerations are occupancy gauges.
	DupemapEntries     uint64
	DupemapGenerations uint64
	// Fanout is the current flush fanout, a gauge: SetPeers retunes it.
	Fanout int
}

// Relay is a node's gossip relay engine. Like the consensus engines it
// is a pure state machine owned by the node's event loop: Broadcast,
// Receive, Flush, Advance and SetPeers must all be called from that
// loop. Only Stats is safe from other goroutines.
type Relay struct {
	self   gcrypto.Address
	peers  []gcrypto.Address
	fanout atomic.Int64 // atomic: Stats reads it off the event loop
	auto   bool         // fanout derived from peer count
	every  Time

	pending []RelayEntry
	scratch []gcrypto.Address
	rng     *rand.Rand
	dupe    *DupeMap

	forwardedFrames  atomic.Uint64
	forwardedEntries atomic.Uint64
	suppressed       atomic.Uint64
	dropped          atomic.Uint64
	delivered        atomic.Uint64
	dupeEntries      atomic.Uint64
	dupeGens         atomic.Uint64
}

// autoFanout is ceil(log₂(n+1))+1, floored at the default: log-degree
// random graphs are connected with high probability, and the +1 absorbs
// faulty peers.
func autoFanout(n int) int {
	f := 1
	for p := 1; p < n+1; p *= 2 {
		f++
	}
	if f < DefaultRelayFanout {
		f = DefaultRelayFanout
	}
	return f
}

// NewRelay builds a relay for one node.
func NewRelay(cfg RelayConfig) *Relay {
	r := &Relay{
		self:  cfg.Self,
		auto:  cfg.Fanout <= 0,
		every: cfg.FlushEvery,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		dupe:  NewDupeMap(cfg.DupeTTL, 0, 0),
	}
	if r.every <= 0 {
		r.every = DefaultRelayFlush
	}
	r.fanout.Store(int64(cfg.Fanout))
	r.SetPeers(cfg.Peers)
	return r
}

// SetPeers replaces the relay's peer set (self is filtered out); the
// runtime calls it at construction and on every era switch so the
// epidemic always spans the current committee.
func (r *Relay) SetPeers(peers []gcrypto.Address) {
	r.peers = r.peers[:0]
	for _, p := range peers {
		if p != r.self {
			r.peers = append(r.peers, p)
		}
	}
	if r.auto {
		r.fanout.Store(int64(autoFanout(len(r.peers))))
	}
}

// PeerCount returns the current peer-set size (self excluded).
func (r *Relay) PeerCount() int { return len(r.peers) }

// FlushEvery returns the batching interval for timer arming.
func (r *Relay) FlushEvery() Time { return r.every }

// HasPending reports whether a flush timer needs to be armed.
func (r *Relay) HasPending() bool { return len(r.pending) > 0 }

// Broadcast queues an envelope this node originated. Its digest is
// marked seen so an echo arriving back over the epidemic is suppressed
// rather than re-queued.
func (r *Relay) Broadcast(now Time, env *Envelope) {
	wire := EncodeEnvelope(env)
	r.dupe.Seen(now, gcrypto.HashBytes(wire))
	r.pending = append(r.pending, RelayEntry{Hop: 1, Wire: wire, Env: env})
	r.gauges()
}

// Receive unwraps an incoming relay frame and returns the novel inner
// envelopes, in frame order, for engine delivery. Novel entries under
// the hop bound are queued for re-forwarding at hop+1.
func (r *Relay) Receive(now Time, frame *Envelope) ([]*Envelope, error) {
	entries, err := frame.RelayEntries()
	if err != nil {
		return nil, err
	}
	var novel []*Envelope
	for i := range entries {
		ent := entries[i]
		if r.dupe.Seen(now, gcrypto.HashBytes(ent.Wire)) {
			r.suppressed.Add(1)
			continue
		}
		novel = append(novel, ent.Env)
		r.delivered.Add(1)
		if int(ent.Hop) >= DefaultMaxRelayHops {
			r.dropped.Add(1)
			continue
		}
		r.pending = append(r.pending, RelayEntry{Hop: ent.Hop + 1, Wire: ent.Wire, Env: ent.Env})
	}
	r.gauges()
	return novel, nil
}

// Flush drains the pending queue into batched relay frames and sends
// each frame to a fresh fanout-sized random peer subset via send.
func (r *Relay) Flush(now Time, send func(to gcrypto.Address, env *Envelope)) {
	if len(r.pending) == 0 || len(r.peers) == 0 || r.fanout.Load() == 0 {
		r.pending = r.pending[:0]
		return
	}
	for off := 0; off < len(r.pending); off += MaxRelayEntries {
		end := off + MaxRelayEntries
		if end > len(r.pending) {
			end = len(r.pending)
		}
		// Copy, don't alias: the frame (and its memoized entry slice)
		// stays referenced while in flight, but r.pending's backing array
		// is reused for the next batch the moment this loop returns.
		batch := append([]RelayEntry(nil), r.pending[off:end]...)
		frame := NewRelayEnvelope(r.self, batch)
		targets := r.pickTargets()
		for _, to := range targets {
			send(to, frame)
		}
		r.forwardedFrames.Add(uint64(len(targets)))
		r.forwardedEntries.Add(uint64(len(batch) * len(targets)))
	}
	r.pending = r.pending[:0]
	r.gauges()
}

// pickTargets draws a fanout-sized random peer subset by partial
// Fisher–Yates over a scratch copy; deterministic under the seeded rng.
func (r *Relay) pickTargets() []gcrypto.Address {
	k := int(r.fanout.Load())
	if k > len(r.peers) {
		k = len(r.peers)
	}
	r.scratch = append(r.scratch[:0], r.peers...)
	for i := 0; i < k; i++ {
		j := i + r.rng.Intn(len(r.scratch)-i)
		r.scratch[i], r.scratch[j] = r.scratch[j], r.scratch[i]
	}
	return r.scratch[:k]
}

// Advance forwards commit progress to the dupemap watermark.
func (r *Relay) Advance(now Time, era, seq uint64) {
	r.dupe.Advance(now, era, seq)
	r.gauges()
}

func (r *Relay) gauges() {
	r.dupeEntries.Store(uint64(r.dupe.Len()))
	r.dupeGens.Store(uint64(len(r.dupe.gens)))
}

// Stats snapshots the relay counters; safe from any goroutine.
func (r *Relay) Stats() RelayStats {
	return RelayStats{
		ForwardedFrames:    r.forwardedFrames.Load(),
		ForwardedEntries:   r.forwardedEntries.Load(),
		Suppressed:         r.suppressed.Load(),
		Dropped:            r.dropped.Load(),
		Delivered:          r.delivered.Load(),
		DupemapEntries:     r.dupeEntries.Load(),
		DupemapGenerations: r.dupeGens.Load(),
		Fanout:             int(r.fanout.Load()),
	}
}
