// Package simnet is a deterministic discrete-event network simulator.
// It models exactly the two resources the paper's analysis (Section
// IV-B, IV-C) says dominate PBFT-family performance:
//
//   - per-node processing capacity: "a node can receive and process s
//     messages per second" — each received message occupies the node's
//     CPU for ProcTime (= 1/s), and messages queue behind a busy CPU;
//   - network traffic: every transmitted envelope is metered
//     (payload + WireOverhead bytes) and delayed by a latency model.
//
// Under a fixed seed every run is bit-for-bit reproducible, which is
// what lets the benchmark harness regenerate the paper's figures
// deterministically.
package simnet

import (
	"fmt"
	"math/rand"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
)

// NodeID identifies a simulated node.
type NodeID = gcrypto.Address

// Handler is the node-side sink for simulator events.
type Handler interface {
	HandleMessage(now consensus.Time, env *consensus.Envelope)
	HandleTimer(now consensus.Time, id consensus.TimerID)
}

// LatencyModel computes the propagation delay of one message.
type LatencyModel interface {
	Delay(from, to NodeID, size int, rng *rand.Rand) time.Duration
}

// UniformLatency is Base ± Jitter plus size/BytesPerSec transmission
// time — a LAN-style model matching the paper's testbed.
type UniformLatency struct {
	Base        time.Duration
	Jitter      time.Duration // uniform in [0, Jitter)
	BytesPerSec float64       // 0 = infinite bandwidth
}

// Delay implements LatencyModel.
func (u UniformLatency) Delay(_, _ NodeID, size int, rng *rand.Rand) time.Duration {
	d := u.Base
	if u.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(u.Jitter)))
	}
	if u.BytesPerSec > 0 {
		d += time.Duration(float64(size) / u.BytesPerSec * float64(time.Second))
	}
	return d
}

// Config tunes the simulation.
type Config struct {
	Seed int64
	// Latency is the propagation model; nil means zero latency.
	Latency LatencyModel
	// ProcTime is the CPU cost of handling one received message (the
	// paper's 1/s).
	ProcTime time.Duration
	// SendTime is the CPU cost of emitting one message.
	SendTime time.Duration
	// DropRate drops each message independently with this probability.
	DropRate float64
	// DuplicateRate delivers each surviving message a second time with
	// this probability, with an independent latency draw — so the copy
	// usually arrives reordered relative to the original. Models
	// retransmission-happy links for gossip/dupemap property tests.
	DuplicateRate float64
	// WireOverhead is added to each message's metered size (frame and
	// transport headers; 66 approximates Ethernet+IPv4+TCP).
	WireOverhead int
	// Tap, when set, observes every message a live sender emits —
	// including ones later lost to drops or partitions, because the
	// sender already committed to them. Chaos harnesses use it to
	// detect double-signed conflicting votes in the trace.
	Tap func(now consensus.Time, from, to NodeID, env *consensus.Envelope)
}

// DefaultWireOverhead approximates Ethernet + IPv4 + TCP headers.
const DefaultWireOverhead = 66

// event kinds
type eventKind uint8

const (
	evArrival eventKind = iota + 1 // message reached the NIC
	evHandle                       // CPU begins/finishes handling
	evTimer
	evFunc
)

// An event is what the queue holds beside its key. Events are recycled
// through a free list: an arrival becomes its own handle event, and a
// dispatched event is zeroed before it is reused, so one delivery
// allocates nothing here once the list is warm.
type event struct {
	kind eventKind

	node     *node
	from     NodeID // an envelope's sender: the channel it arrives on
	env      *consensus.Envelope
	timerID  consensus.TimerID
	canceled *bool
	fn       func(now consensus.Time)
}

// entry is one queue slot: the key (at, seq) sits beside the event, so
// ordering never dereferences the event.
type entry struct {
	at  consensus.Time
	seq uint64 // FIFO tiebreak for equal times
	ev  *event
}

func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// queue is a binary min-heap of entries ordered by (at, seq). Every seq
// is distinct, so the dispatch order is total and independent of how
// the heap breaks ties internally.
type queue []entry

func (q *queue) push(x entry) {
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *queue) pop() entry {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = entry{}
	h = h[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		m := l
		if r := l + 1; r < len(h) && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

type node struct {
	id        NodeID
	handler   Handler
	busyUntil consensus.Time
	timers    map[consensus.TimerID]*bool // timer -> canceled flag
	crashed   bool
	// sent and recv are the traffic meter's per-node byte counts.
	sent, recv int64
}

// live reports whether the node takes deliveries and timers.
func (nd *node) live() bool { return !nd.crashed && nd.handler != nil }

// Network is the simulator.
type Network struct {
	cfg     Config
	rng     *rand.Rand
	now     consensus.Time
	seq     uint64
	events  queue
	free    []*event
	nodes   map[NodeID]*node
	blocked map[[2]NodeID]bool
	traffic *Traffic
}

// New creates a network.
func New(cfg Config) *Network {
	if cfg.WireOverhead == 0 {
		cfg.WireOverhead = DefaultWireOverhead
	}
	n := &Network{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		nodes:   make(map[NodeID]*node),
		blocked: make(map[[2]NodeID]bool),
	}
	n.traffic = newTraffic(n.nodes)
	return n
}

// AddNode registers a node; handler may be nil for pure clients that
// ignore incoming traffic. Registering an address again starts it over
// as a new node under the same identity; its traffic counts stay.
func (n *Network) AddNode(id NodeID, h Handler) {
	nd := n.nodes[id]
	if nd == nil {
		nd = new(node)
		n.nodes[id] = nd
	}
	*nd = node{id: id, handler: h, timers: make(map[consensus.TimerID]*bool), sent: nd.sent, recv: nd.recv}
}

// Now returns the current virtual time.
func (n *Network) Now() consensus.Time { return n.now }

// Traffic returns the traffic meter.
func (n *Network) Traffic() *Traffic { return n.traffic }

// Rand returns the simulation RNG (for workload generators that must
// share the deterministic stream).
func (n *Network) Rand() *rand.Rand { return n.rng }

// newEvent takes a zeroed event from the free list, or allocates one.
func (n *Network) newEvent() *event {
	if k := len(n.free); k > 0 {
		e := n.free[k-1]
		n.free = n.free[:k-1]
		return e
	}
	return new(event)
}

// release zeroes a dispatched event and returns it to the free list.
func (n *Network) release(e *event) {
	*e = event{}
	n.free = append(n.free, e)
}

func (n *Network) push(at consensus.Time, e *event) {
	n.seq++
	n.events.push(entry{at: at, seq: n.seq, ev: e})
}

// Send transmits env from one node to another at the current virtual
// time, charging sender CPU, metering traffic, and applying latency,
// drops, partitions and crashes.
func (n *Network) Send(from, to NodeID, env *consensus.Envelope) {
	n.send(n.nodes[from], to, env)
}

func (n *Network) send(sender *node, to NodeID, env *consensus.Envelope) {
	if sender == nil || sender.crashed {
		return
	}
	from := sender.id
	receiver := n.nodes[to]
	size := env.WireSize() + n.cfg.WireOverhead
	n.traffic.record(sender, receiver, env.MsgKind, size)
	if n.cfg.Tap != nil {
		n.cfg.Tap(n.now, from, to, env)
	}

	start := n.now
	if sender.busyUntil > start {
		start = sender.busyUntil
	}
	sendDone := start + n.cfg.SendTime
	sender.busyUntil = sendDone

	if n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
		return
	}
	if len(n.blocked) > 0 && (n.blocked[[2]NodeID{from, to}] || n.blocked[[2]NodeID{to, from}]) {
		return
	}
	if receiver == nil {
		return
	}
	var lat time.Duration
	if n.cfg.Latency != nil {
		lat = n.cfg.Latency.Delay(from, to, size, n.rng)
	}
	n.pushArrival(sendDone+lat, receiver, from, env)
	// Both guards consume rng only when the fault is armed, so existing
	// seeds replay bit-for-bit with the fault off.
	if n.cfg.DuplicateRate > 0 && n.rng.Float64() < n.cfg.DuplicateRate {
		dup := time.Duration(0)
		if n.cfg.Latency != nil {
			dup = n.cfg.Latency.Delay(from, to, size, n.rng)
		}
		n.pushArrival(sendDone+dup, receiver, from, env)
	}
}

func (n *Network) pushArrival(at consensus.Time, to *node, from NodeID, env *consensus.Envelope) {
	e := n.newEvent()
	e.kind, e.node, e.from, e.env = evArrival, to, from, env
	n.push(at, e)
}

// SetTimer schedules HandleTimer(id) on a node after delay.
func (n *Network) SetTimer(nodeID NodeID, id consensus.TimerID, delay consensus.Time) {
	n.setTimer(n.nodes[nodeID], id, delay)
}

func (n *Network) setTimer(nd *node, id consensus.TimerID, delay consensus.Time) {
	if nd == nil {
		return
	}
	canceled := new(bool)
	nd.timers[id] = canceled
	e := n.newEvent()
	e.kind, e.node, e.timerID, e.canceled = evTimer, nd, id, canceled
	n.push(n.now+delay, e)
}

// CancelTimer cancels a pending timer.
func (n *Network) CancelTimer(nodeID NodeID, id consensus.TimerID) {
	n.cancelTimer(n.nodes[nodeID], id)
}

func (n *Network) cancelTimer(nd *node, id consensus.TimerID) {
	if nd == nil {
		return
	}
	if c, ok := nd.timers[id]; ok {
		*c = true
		delete(nd.timers, id)
	}
}

// Schedule runs fn at the given virtual time (workload injection).
func (n *Network) Schedule(at consensus.Time, fn func(now consensus.Time)) {
	if at < n.now {
		at = n.now
	}
	e := n.newEvent()
	e.kind, e.fn = evFunc, fn
	n.push(at, e)
}

// Crash makes a node silently drop everything (fail-stop). Pending
// timers die with the process: they live in the process's memory, so
// no incarnation — recovered or restarted — ever sees them fire.
func (n *Network) Crash(id NodeID) {
	nd := n.nodes[id]
	if nd == nil {
		return
	}
	nd.crashed = true
	for tid, canceled := range nd.timers {
		*canceled = true
		delete(nd.timers, tid)
	}
}

// Recover brings a crashed node back WITH its memory intact (the
// handler is retained). This models a transient network outage or a
// paused process, NOT a real crash-restart — a killed process forgets
// its RAM. Use Restart for the amnesia case.
func (n *Network) Recover(id NodeID) {
	if nd := n.nodes[id]; nd != nil {
		nd.crashed = false
	}
}

// Restart brings a crashed node back as a fresh incarnation: the old
// handler (and with it every in-memory structure — vote tables,
// mempool, timers) is discarded and replaced by h, which the caller
// must have rebuilt from durable state only. This is the dangerous
// amnesia-restart case the consensus WAL exists for.
func (n *Network) Restart(id NodeID, h Handler) {
	nd := n.nodes[id]
	if nd == nil {
		return
	}
	for tid, canceled := range nd.timers {
		*canceled = true
		delete(nd.timers, tid)
	}
	nd.handler = h
	nd.crashed = false
	nd.busyUntil = n.now
}

// SetDropRate changes the background message-loss probability at the
// current virtual time. Chaos schedules use it to run the fault phase
// under lossy conditions and the recovery phase on a clean network.
func (n *Network) SetDropRate(p float64) { n.cfg.DropRate = p }

// Partition blocks traffic between two nodes (both directions).
func (n *Network) Partition(a, b NodeID) { n.blocked[[2]NodeID{a, b}] = true }

// Heal removes a partition.
func (n *Network) Heal(a, b NodeID) {
	delete(n.blocked, [2]NodeID{a, b})
	delete(n.blocked, [2]NodeID{b, a})
}

// Run processes events until the queue empties or virtual time would
// exceed `until`. It returns the number of events processed.
func (n *Network) Run(until consensus.Time) int {
	processed := 0
	for len(n.events) > 0 && n.events[0].at <= until {
		x := n.events.pop()
		if x.at > n.now {
			n.now = x.at
		}
		n.dispatch(x.ev)
		processed++
	}
	if n.now < until {
		// No events remain inside the window; idle to the horizon.
		n.now = until
	}
	return processed
}

// RunUntilIdle processes events until none remain or the hard cap on
// virtual time is hit; it returns the number of events processed. A
// canceled timer is dropped without moving the clock.
func (n *Network) RunUntilIdle(cap consensus.Time) int {
	processed := 0
	for len(n.events) > 0 && n.events[0].at <= cap {
		x := n.events.pop()
		if e := x.ev; e.canceled != nil && *e.canceled {
			n.release(e)
			continue
		}
		if x.at > n.now {
			n.now = x.at
		}
		n.dispatch(x.ev)
		processed++
	}
	return processed
}

// dispatch runs one event and recycles it (an arrival is recycled as
// its own handle event).
func (n *Network) dispatch(e *event) {
	nd := e.node
	switch e.kind {
	case evArrival:
		if !nd.live() {
			break
		}
		// The message queues behind the CPU; the paper's s msgs/sec.
		start := n.now
		if nd.busyUntil > start {
			start = nd.busyUntil
		}
		done := start + n.cfg.ProcTime
		nd.busyUntil = done
		e.kind = evHandle
		n.push(done, e)
		return
	case evHandle:
		if nd.live() {
			env, from := e.env, e.from
			n.release(e)
			nd.handler.HandleMessage(n.now, consensus.Attributed(env, from))
			return
		}
	case evTimer:
		if *e.canceled || !nd.live() {
			break
		}
		id := e.timerID
		delete(nd.timers, id)
		n.release(e)
		nd.handler.HandleTimer(n.now, id)
		return
	case evFunc:
		fn := e.fn
		n.release(e)
		fn(n.now)
		return
	}
	n.release(e)
}

// Executor returns a runtime executor bound to one node.
func (n *Network) Executor(id NodeID) *NodeExecutor {
	return &NodeExecutor{net: n, id: id}
}

// NodeExecutor adapts the network to the runtime.Executor interface
// for a specific node.
type NodeExecutor struct {
	net *Network
	id  NodeID
	nd  *node // resolved on first use: the executor may predate AddNode
}

func (x *NodeExecutor) node() *node {
	if x.nd == nil {
		x.nd = x.net.nodes[x.id]
	}
	return x.nd
}

// Send implements runtime.Executor.
func (x *NodeExecutor) Send(to NodeID, env *consensus.Envelope) {
	x.net.send(x.node(), to, env)
}

// SetTimer implements runtime.Executor.
func (x *NodeExecutor) SetTimer(id consensus.TimerID, delay consensus.Time) {
	x.net.setTimer(x.node(), id, delay)
}

// CancelTimer implements runtime.Executor.
func (x *NodeExecutor) CancelTimer(id consensus.TimerID) {
	x.net.cancelTimer(x.node(), id)
}

// String summarises the network state for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{t=%v nodes=%d events=%d}", n.now, len(n.nodes), len(n.events))
}
