// Package transport runs the same consensus engines that the
// simulator drives over real TCP: length-prefixed envelope framing, an
// address book mapping chain addresses to host:port endpoints, a signed
// identity handshake so inbound connections are attributed and reused
// bidirectionally, per-peer writers with capped-exponential redial, and
// a single-goroutine real-time runner that serializes engine events
// exactly like the simulator does.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"gpbft/internal/backoff"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/types"
)

// MaxFrame bounds one wire frame (a block-sync response with full
// blocks is the largest message).
const MaxFrame = 32 << 20

// keepAlivePeriod is the TCP keepalive probe interval. An idle committee
// is legitimately silent between proposals, so a dead peer is found by
// keepalives, not by a read deadline.
const keepAlivePeriod = 30 * time.Second

// redialBackoff is the redial schedule: 50 ms doubling to 2 s, each wait
// widened by up to half again so a committee redialing a restarted peer
// does not stampede it.
var redialBackoff = backoff.Policy{Base: 50 * time.Millisecond, Cap: 2 * time.Second, Factor: 2, Jitter: 0.5}

// Errors returned by the transport.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds limit")
	ErrUnknownPeer   = errors.New("transport: unknown peer address")
	ErrClosed        = errors.New("transport: closed")
)

// writeRawFrame writes one length-prefixed payload to w.
func writeRawFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameChunk is the first allocation for a frame's payload; past it the
// buffer doubles as bytes arrive. A header may claim up to MaxFrame, and
// allocating that up front would let one unauthenticated 4-byte header
// pin 32 MiB.
const frameChunk = 64 << 10

// readBufSize is the per-connection read buffer. The writer coalesces up
// to maxWriteCoalesce frames into one write, and the buffer lets one read
// syscall return many of them; it stays small because every connection
// holds one for its whole life (DESIGN.md §5q).
const readBufSize = 8 << 10

// readRawFrame reads one length-prefixed payload from r, growing the
// buffer as the payload arrives rather than as its header claims: at
// most twice what has arrived, plus frameChunk.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, 0, min(n, frameChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) { // double, but never past the claim
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// WriteFrame writes one length-prefixed envelope to w.
func WriteFrame(w io.Writer, env *consensus.Envelope) error {
	return writeRawFrame(w, consensus.EncodeEnvelope(env))
}

// ReadFrame reads one length-prefixed envelope from r.
func ReadFrame(r io.Reader) (*consensus.Envelope, error) {
	buf, err := readRawFrame(r)
	if err != nil {
		return nil, err
	}
	return consensus.DecodeEnvelope(buf)
}

// Peer is one address-book entry.
type Peer struct {
	Addr     gcrypto.Address
	HostPort string
}

// Config configures a TCP transport endpoint.
type Config struct {
	// Listen is the host:port to accept on (":0" for an OS-chosen
	// port).
	Listen string
	// Peers is the address book (self may be included; it is ignored).
	Peers []Peer
	// Self filters the address book. Derived from Key when zero.
	Self gcrypto.Address
	// Key, when set, signs the identity hello sent on every outbound
	// connection, letting the remote side attribute and reuse the
	// connection for its own traffic. Without a key no hello is sent
	// and connections stay one-directional (legacy/client mode).
	Key *gcrypto.KeyPair
	// DialTimeout bounds connection attempts (default 2 s).
	DialTimeout time.Duration
	// SendQueue is the per-peer outbound buffer (default 4096).
	SendQueue int
	// WriteTimeout bounds one frame write (default 10 s); a peer that
	// stops draining its socket cannot wedge the writer forever.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the wait for an inbound connection's
	// first frame (default 5 s), shedding silent connections.
	HandshakeTimeout time.Duration
	// AdmitTx, when set, gates every inbound request envelope before it
	// reaches the engine loop (per-identity rate limits, load shedding).
	// A *runtime.RejectError return is answered with a signed TxRejected
	// reply on client connections so submitters can back off; the
	// envelope is dropped either way, and the connection stays open.
	AdmitTx func(tx *types.Transaction) error
	// IngressBytesPerSec, when positive, throttles each unattributed
	// (client) connection to this sustained inbound byte rate with
	// IngressBurstBytes of slack (default 4x the rate). A flooding
	// connection only stalls its own read loop — identified committee
	// peers are exempt, since they are accountable identities whose
	// relayed traffic was already admission-checked upstream.
	IngressBytesPerSec int
	IngressBurstBytes  int
}

func (c *Config) applyDefaults() {
	if c.Key != nil && c.Self.IsZero() {
		c.Self = c.Key.Address()
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.SendQueue == 0 {
		c.SendQueue = 4096
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.IngressBytesPerSec > 0 && c.IngressBurstBytes <= 0 {
		c.IngressBurstBytes = 4 * c.IngressBytesPerSec
	}
}

// TCP is a transport endpoint: it accepts inbound framed envelopes and
// maintains one writer per peer. Writers prefer a connection the peer
// dialed to us (attributed via the identity handshake); otherwise they
// dial lazily, re-resolving the peer's endpoint from the address book
// on every attempt so AddPeer updates reach live writers.
type TCP struct {
	cfg      Config
	ln       net.Listener
	incoming chan *consensus.Envelope
	ctr      counters

	mu     sync.Mutex
	book   map[gcrypto.Address]string
	peers  map[gcrypto.Address]*peer
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	// encEnv/encWire form a one-slot encode memo for broadcast fan-out
	// (see Send); guarded by mu.
	encEnv  *consensus.Envelope
	encWire []byte
}

// peer is the per-peer connection state machine. Lock order: t.mu may
// not be acquired while holding p.mu.
type peer struct {
	t    *TCP
	addr gcrypto.Address
	q    chan []byte // pre-encoded frame payloads (see TCP.Send)
	// wake interrupts a backoff wait early: an endpoint change or an
	// adopted inbound connection makes an immediate retry worthwhile.
	wake chan struct{}
	// wbuf is the writer's coalescing scratch buffer; only the writeLoop
	// goroutine touches it.
	wbuf []byte

	mu          sync.Mutex
	conn        net.Conn
	inboundConn bool
	state       PeerState
	dialed      bool // a dial has been attempted before (redial accounting)
	redials     int64
}

// New starts listening and returns the endpoint.
func New(cfg Config) (*TCP, error) {
	cfg.applyDefaults()
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	t := &TCP{
		cfg:      cfg,
		ln:       ln,
		incoming: make(chan *consensus.Envelope, 8192),
		book:     make(map[gcrypto.Address]string, len(cfg.Peers)),
		peers:    make(map[gcrypto.Address]*peer),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p.Addr != cfg.Self {
			t.book[p.Addr] = p.HostPort
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// ListenAddr returns the bound listen address (useful with ":0").
func (t *TCP) ListenAddr() string { return t.ln.Addr().String() }

// Incoming returns the stream of received envelopes.
func (t *TCP) Incoming() <-chan *consensus.Envelope { return t.incoming }

// Dropped returns how many outbound messages were discarded because a
// peer queue was full or its connection kept failing.
func (t *TCP) Dropped() int64 { return t.ctr.dropped.Load() }

// Send queues env for delivery to a known peer; unknown peers are an
// error, full queues drop (consensus protocols tolerate loss).
//
// The envelope is encoded here, on the caller's goroutine, and the
// wire bytes are what travels through the peer queue. A one-slot memo
// keyed by envelope pointer makes a broadcast — the node executor
// calls Send once per recipient with the same envelope — encode once
// instead of once per peer. Callers must not mutate an envelope after
// handing it to Send (engines never do: envelopes are immutable once
// sealed).
func (t *TCP) Send(to gcrypto.Address, env *consensus.Envelope) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	p := t.peers[to]
	if p == nil {
		if _, known := t.book[to]; !known {
			t.mu.Unlock()
			return ErrUnknownPeer
		}
		p = t.startPeerLocked(to)
	}
	payload := t.encWire
	if t.encEnv != env {
		payload = consensus.EncodeEnvelope(env)
		t.encEnv, t.encWire = env, payload
	}
	t.mu.Unlock()
	if len(payload) > MaxFrame {
		t.ctr.dropped.Add(1)
		return ErrFrameTooLarge
	}
	select {
	case p.q <- payload:
	default:
		t.ctr.dropped.Add(1)
	}
	return nil
}

// AddPeer registers or updates a peer endpoint at runtime (new
// endorsers joining, a device moving to a new address). If the
// endpoint changed, the live writer is kicked so new traffic redials
// the fresh address instead of the stale one.
func (t *TCP) AddPeer(pr Peer) {
	if pr.Addr == t.cfg.Self {
		return
	}
	t.mu.Lock()
	old, had := t.book[pr.Addr]
	t.book[pr.Addr] = pr.HostPort
	p := t.peers[pr.Addr]
	t.mu.Unlock()
	if p != nil && (!had || old != pr.HostPort) {
		p.endpointChanged()
	}
}

// startPeerLocked creates the peer state machine and its writer; the
// caller must hold t.mu and have checked t.closed.
func (t *TCP) startPeerLocked(addr gcrypto.Address) *peer {
	p := &peer{
		t:    t,
		addr: addr,
		q:    make(chan []byte, t.cfg.SendQueue),
		wake: make(chan struct{}, 1),
	}
	t.peers[addr] = p
	t.wg.Add(1)
	go p.writeLoop()
	return p
}

// endpoint resolves the peer's current address-book entry ("" when the
// peer is known only through an inbound connection).
func (t *TCP) endpoint(addr gcrypto.Address) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.book[addr]
}

// track registers a connection for shutdown and pruning; it refuses
// (and closes) when the endpoint is already closed.
func (t *TCP) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		conn.Close()
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

// untrack prunes a dead connection so churn (era switches, peer
// restarts) does not grow the tracked set without bound.
func (t *TCP) untrack(conn net.Conn) {
	t.mu.Lock()
	if _, present := t.conns[conn]; present {
		delete(t.conns, conn)
		t.ctr.connsPruned.Add(1)
	}
	t.mu.Unlock()
	conn.Close()
}

// configureConn applies keepalive settings to a fresh connection.
func (t *TCP) configureConn(conn net.Conn) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	tc.SetKeepAlive(true)
	tc.SetKeepAlivePeriod(keepAlivePeriod)
	tc.SetNoDelay(true)
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.ctr.accepted.Add(1)
		if !t.track(conn) {
			return
		}
		t.wg.Add(1)
		go t.serveInbound(conn)
	}
}

// serveInbound handles one accepted connection. The first frame
// decides its nature: a verified hello attributes the connection to a
// chain address (enabling bidirectional reuse); a plain envelope marks
// a legacy/client connection that stays unattributed.
func (t *TCP) serveInbound(conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	t.configureConn(conn)

	conn.SetReadDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
	// The hello and the frames behind it may share a segment, so the
	// hello is read through the buffer the read loop goes on with.
	br := bufio.NewReaderSize(conn, readBufSize)
	payload, err := readRawFrame(br)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})

	if isHello(payload) {
		h, err := DecodeHello(payload)
		if err != nil || h.Verify() != nil || h.Addr == t.cfg.Self {
			t.ctr.handshakeFailures.Add(1)
			return
		}
		if p := t.adoptInbound(h.Addr, conn); p != nil {
			defer p.dropConn(conn)
		}
		t.readFrames(conn, br, h.Addr, false, nil)
		return
	}
	// No hello: an unattributed client (or legacy) connection. Client
	// traffic gets the ingress byte budget and admission replies.
	t.readFrames(conn, br, gcrypto.Address{}, true, payload)
}

// adoptInbound offers an attributed inbound connection to the peer's
// writer; it returns the peer so the caller can detach the connection
// on read exit, or nil when the transport is closing.
func (t *TCP) adoptInbound(addr gcrypto.Address, conn net.Conn) *peer {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	p := t.peers[addr]
	if p == nil {
		p = t.startPeerLocked(addr)
	}
	t.mu.Unlock()
	p.offerConn(conn, true)
	return p
}

// deliverPayload decodes and queues one received frame, attributed to
// from, the connection's verified identity (zero on a client
// connection); a malformed frame is a protocol violation that closes
// the connection. A request's transaction is decoded here, once
// (pbft.DecodeRequest), and passes the AdmitTx gate: a rejected request
// is dropped (the connection survives) and, on client connections, is
// answered with a signed TxRejected reply carrying the retry-after hint.
//
// The connection's read goroutine is the node's pre-verification stage:
// it does the signature work a queued envelope is sure to need before
// the single event loop sees it. Each connection keeps its own order,
// and no envelope waits behind another peer's checks.
func (t *TCP) deliverPayload(conn net.Conn, from gcrypto.Address, payload []byte, client bool) bool {
	env, err := consensus.DecodeEnvelope(payload)
	if err != nil {
		return false
	}
	env = consensus.Attributed(env, from)
	t.ctr.framesIn.Add(1)
	t.ctr.bytesIn.Add(int64(4 + len(payload)))
	if env.MsgKind == consensus.KindRequest {
		tx, err := pbft.DecodeRequest(env, true)
		if err != nil {
			return false // malformed request body
		}
		if t.cfg.AdmitTx != nil {
			if err := t.cfg.AdmitTx(tx); err != nil {
				t.ctr.ingressRejected.Add(1)
				if client && t.cfg.Key != nil {
					t.sendReject(conn, tx.ID(), err)
				}
				return true // drop the envelope, keep the connection
			}
		}
	}
	preVerify(env)
	select {
	case t.incoming <- env:
		return true
	case <-t.done:
		return false
	}
}

// preVerify does the signature work an envelope is sure to need — the
// envelope seal, or the transaction signature a request carries — so the
// event loop finds every check memoized. A failure is not acted on here:
// the envelope is still delivered and the engine's own Open rejects it,
// since only success is memoized.
//
// Intra-era kinds are NOT verified here: only the engine holding the
// era's committee can name their sender (DESIGN.md 5o), and only it can
// tell whether a vote still counts (pbft.admitVote) — checking the rest
// up front was the single largest CPU cost of a round.
func preVerify(env *consensus.Envelope) {
	switch env.MsgKind {
	case consensus.KindRelay:
		// A relay frame is unsealed by design; the work to front-load is
		// decoding the batch (memoized on the envelope — the event loop
		// reuses this result) and pre-verifying each inner envelope.
		// Recursion is safe: the decoder rejects nested relay frames.
		entries, err := env.RelayEntries()
		if err != nil {
			return
		}
		for i := range entries {
			preVerify(entries[i].Env)
		}
	case consensus.KindRequest:
		// Request envelopes are unsealed (pbft.NewRequest): the
		// transaction inside is what authenticates, so that is what gets
		// warmed. A top-level request was decoded before the gate.
		if tx, err := pbft.DecodeRequest(env, true); err == nil {
			types.PrewarmTxs([]types.Transaction{*tx})
		}
	default:
		if !env.MsgKind.IntraEra() {
			_ = env.Verify() // warms the memo; the engine acts on the verdict
		}
	}
}

// sendReject answers a refused request with a signed TxRejected frame.
// Only called on client connections, whose read goroutine is the sole
// writer — peer connections have a concurrent writeLoop.
func (t *TCP) sendReject(conn net.Conn, txID gcrypto.Hash, cause error) {
	msg := &pbft.TxRejected{TxID: txID, Reason: types.RejectPoolFull}
	var rej *runtime.RejectError
	if errors.As(cause, &rej) {
		msg.Reason, msg.RetryAfter = rej.Reason, rej.RetryAfter
	}
	env := consensus.Seal(t.cfg.Key, msg)
	wire := consensus.EncodeEnvelope(env)
	conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	if writeRawFrame(conn, wire) == nil {
		t.ctr.rejectReplies.Add(1)
		t.ctr.framesOut.Add(1)
		t.ctr.bytesOut.Add(int64(4 + len(wire)))
	}
	conn.SetWriteDeadline(time.Time{})
}

// readFrames pumps envelopes off a connection from `from` until it
// fails, reading through br, the connection's buffered reader, and
// starting with first when the caller already read a frame off it.
// Client connections additionally pay a per-connection ingress byte
// budget: when the configured rate is exceeded, only this connection's
// read loop sleeps off the deficit, so one flooder cannot slow anyone
// else.
func (t *TCP) readFrames(conn net.Conn, br *bufio.Reader, from gcrypto.Address, client bool, first []byte) {
	if first != nil && !t.deliverPayload(conn, from, first, client) {
		return
	}
	var budget float64
	var last time.Time
	rate := float64(t.cfg.IngressBytesPerSec)
	throttled := client && rate > 0
	if throttled {
		budget = float64(t.cfg.IngressBurstBytes)
		last = time.Now()
	}
	for {
		payload, err := readRawFrame(br)
		if err != nil {
			return
		}
		if throttled {
			now := time.Now()
			budget += rate * now.Sub(last).Seconds()
			if max := float64(t.cfg.IngressBurstBytes); budget > max {
				budget = max
			}
			last = now
			budget -= float64(4 + len(payload))
			if budget < 0 {
				wait := time.Duration(-budget / rate * float64(time.Second))
				if wait > time.Second {
					wait = time.Second // re-check shutdown at least once a second
				}
				t.ctr.ingressThrottled.Add(1)
				select {
				case <-t.done:
					return
				case <-time.After(wait):
				}
			}
		}
		if !t.deliverPayload(conn, from, payload, client) {
			return
		}
	}
}

// --- per-peer writer ---

// maxWriteCoalesce caps how many queued frames one connection write
// may carry. Big enough to absorb a consensus round's burst of votes,
// small enough that one write stays well inside the write deadline.
const maxWriteCoalesce = 64

func (p *peer) writeLoop() {
	defer p.t.wg.Done()
	frames := make([][]byte, 0, maxWriteCoalesce)
	for {
		select {
		case <-p.t.done:
			return
		case payload := <-p.q:
			// Coalesce whatever else is already queued into the same
			// connection write: under load the queue holds a burst of
			// small vote frames, and one syscall for the lot beats one
			// per frame (the connection runs TCP_NODELAY, so the kernel
			// will not batch for us).
			frames = append(frames[:0], payload)
		coalesce:
			for len(frames) < maxWriteCoalesce {
				select {
				case more := <-p.q:
					frames = append(frames, more)
				default:
					break coalesce
				}
			}
			if !p.deliver(frames) {
				return
			}
		}
	}
}

// deliver writes a batch of pre-encoded envelopes as one connection
// write, establishing a connection first if needed. A failed write
// burns the connection and retries once on a fresh one; a second
// failure drops the batch (consensus protocols tolerate loss —
// blocking the whole queue does not). It returns false when the
// transport is shutting down.
func (p *peer) deliver(frames [][]byte) bool {
	buf := p.wbuf[:0]
	for _, f := range frames {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f)))
		buf = append(buf, f...)
	}
	p.wbuf = buf
	for attempt := 0; attempt < 2; attempt++ {
		conn, ok := p.ensureConn()
		if !ok {
			return false
		}
		conn.SetWriteDeadline(time.Now().Add(p.t.cfg.WriteTimeout))
		if _, err := conn.Write(buf); err == nil {
			// Count every frame in the coalesced batch, not the batch as
			// one: each envelope the receiver counts as a FrameIn must be
			// a FrameOut here, and relayed gossip traffic leans on that
			// (one relay frame in can fan out as several frames here). The
			// batch itself is counted separately so coalescing efficiency
			// (frames per connection write) stays observable.
			p.t.ctr.framesOut.Add(int64(len(frames)))
			p.t.ctr.bytesOut.Add(int64(len(buf)))
			p.t.ctr.writeBatches.Add(1)
			return true
		}
		p.dropConn(conn)
	}
	p.t.ctr.dropped.Add(int64(len(frames)))
	return true
}

// ensureConn returns a live connection for the peer, blocking through
// dial attempts and backoff waits. It prefers an adopted inbound
// connection; otherwise it dials the endpoint re-resolved from the
// address book on EVERY attempt, so an AddPeer endpoint update takes
// effect on the next (re)dial instead of never. Returns ok=false when
// the transport closes.
func (p *peer) ensureConn() (net.Conn, bool) {
	attempt := 0
	for {
		select {
		case <-p.t.done:
			return nil, false
		default:
		}
		p.mu.Lock()
		if p.conn != nil {
			conn := p.conn
			p.mu.Unlock()
			return conn, true
		}
		p.mu.Unlock()

		if endpoint := p.t.endpoint(p.addr); endpoint != "" {
			p.setState(PeerConnecting)
			conn, err := p.dial(endpoint)
			if err == nil {
				if !p.t.track(conn) {
					return nil, false
				}
				if p.offerConn(conn, false) {
					p.t.wg.Add(1)
					go p.t.serveOutbound(p, conn)
				} else {
					// An inbound connection was adopted while we dialed;
					// reuse it and discard ours.
					p.t.untrack(conn)
				}
				continue
			}
			p.t.ctr.dialFailures.Add(1)
		}
		p.setState(PeerBackoff)
		// Jittered wait, interruptible by shutdown or a wake (endpoint
		// change, adopted inbound connection).
		select {
		case <-p.t.done:
			return nil, false
		case <-p.wake:
			attempt = 0
		case <-time.After(redialBackoff.Delay(attempt, rand.Float64)):
			attempt++
		}
	}
}

// dial connects to the endpoint and sends the identity hello.
func (p *peer) dial(endpoint string) (net.Conn, error) {
	p.mu.Lock()
	redial := p.dialed
	p.dialed = true
	p.mu.Unlock()
	conn, err := net.DialTimeout("tcp", endpoint, p.t.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	p.t.configureConn(conn)
	if p.t.cfg.Key != nil {
		hello := EncodeHello(NewHello(p.t.cfg.Key))
		conn.SetWriteDeadline(time.Now().Add(p.t.cfg.WriteTimeout))
		if err := writeRawFrame(conn, hello); err != nil {
			conn.Close()
			return nil, err
		}
		conn.SetWriteDeadline(time.Time{})
		// The hello is a frame on the wire like any other — the reject
		// path counts its replies, so the dial path must count its hello,
		// or BytesOut undercounts every (re)connection.
		p.t.ctr.framesOut.Add(1)
		p.t.ctr.bytesOut.Add(int64(len(hello) + 4))
	}
	p.t.ctr.dials.Add(1)
	if redial {
		p.t.ctr.redials.Add(1)
		p.mu.Lock()
		p.redials++
		p.mu.Unlock()
	}
	return conn, nil
}

// serveOutbound reads response frames off a connection we dialed (the
// remote side reuses it for its own traffic) and detaches it on exit.
func (t *TCP) serveOutbound(p *peer, conn net.Conn) {
	defer t.wg.Done()
	defer t.untrack(conn)
	defer p.dropConn(conn)
	t.readFrames(conn, bufio.NewReaderSize(conn, readBufSize), p.addr, false, nil)
}

// offerConn installs a connection as the peer's writer conduit; it
// declines when one is already installed (the extra connection stays
// read-only until it dies).
func (p *peer) offerConn(conn net.Conn, inbound bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		return false
	}
	p.conn = conn
	p.inboundConn = inbound
	p.state = PeerConnected
	p.notifyWake()
	return true
}

// dropConn detaches (and closes) a dead connection if it is the
// peer's current conduit, returning the writer to redialing.
func (p *peer) dropConn(conn net.Conn) {
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		p.inboundConn = false
		if p.state == PeerConnected {
			p.state = PeerIdle
		}
	}
	p.mu.Unlock()
	conn.Close()
}

// endpointChanged reacts to an AddPeer endpoint update: a dialed
// connection to the old address is burned (an adopted inbound one is
// kept — the peer chose it), and any backoff wait is cut short.
func (p *peer) endpointChanged() {
	p.mu.Lock()
	if p.conn != nil && !p.inboundConn {
		p.conn.Close() // its read loop detaches it; the writer redials
	}
	p.mu.Unlock()
	p.notifyWake()
}

func (p *peer) notifyWake() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

func (p *peer) setState(s PeerState) {
	p.mu.Lock()
	if p.conn == nil { // a concurrent adoption wins over dial bookkeeping
		p.state = s
	}
	p.mu.Unlock()
}

// Close shuts the endpoint down.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.done)
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
}
