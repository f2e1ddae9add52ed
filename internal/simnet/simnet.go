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
	"container/heap"
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

type event struct {
	at   consensus.Time
	seq  uint64 // FIFO tiebreak for equal times
	kind eventKind

	node     NodeID
	from     NodeID // an envelope's sender: the channel it arrives on
	env      *consensus.Envelope
	timerID  consensus.TimerID
	canceled *bool
	fn       func(now consensus.Time)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type node struct {
	id        NodeID
	handler   Handler
	busyUntil consensus.Time
	timers    map[consensus.TimerID]*bool // timer -> canceled flag
	crashed   bool
}

// Network is the simulator.
type Network struct {
	cfg     Config
	rng     *rand.Rand
	now     consensus.Time
	seq     uint64
	events  eventHeap
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
		traffic: NewTraffic(),
	}
	heap.Init(&n.events)
	return n
}

// AddNode registers a node; handler may be nil for pure clients that
// ignore incoming traffic.
func (n *Network) AddNode(id NodeID, h Handler) {
	n.nodes[id] = &node{id: id, handler: h, timers: make(map[consensus.TimerID]*bool)}
}

// Now returns the current virtual time.
func (n *Network) Now() consensus.Time { return n.now }

// Traffic returns the traffic meter.
func (n *Network) Traffic() *Traffic { return n.traffic }

// Rand returns the simulation RNG (for workload generators that must
// share the deterministic stream).
func (n *Network) Rand() *rand.Rand { return n.rng }

func (n *Network) push(e *event) {
	n.seq++
	e.seq = n.seq
	heap.Push(&n.events, e)
}

// Send transmits env from one node to another at the current virtual
// time, charging sender CPU, metering traffic, and applying latency,
// drops, partitions and crashes.
func (n *Network) Send(from, to NodeID, env *consensus.Envelope) {
	sender := n.nodes[from]
	if sender == nil || sender.crashed {
		return
	}
	size := env.WireSize() + n.cfg.WireOverhead
	n.traffic.Record(from, to, env.MsgKind, size)
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
	if n.blocked[[2]NodeID{from, to}] || n.blocked[[2]NodeID{to, from}] {
		return
	}
	receiver := n.nodes[to]
	if receiver == nil {
		return
	}
	var lat time.Duration
	if n.cfg.Latency != nil {
		lat = n.cfg.Latency.Delay(from, to, size, n.rng)
	}
	n.push(&event{at: sendDone + lat, kind: evArrival, node: to, from: from, env: env})
	// Both guards consume rng only when the fault is armed, so existing
	// seeds replay bit-for-bit with the fault off.
	if n.cfg.DuplicateRate > 0 && n.rng.Float64() < n.cfg.DuplicateRate {
		dup := time.Duration(0)
		if n.cfg.Latency != nil {
			dup = n.cfg.Latency.Delay(from, to, size, n.rng)
		}
		n.push(&event{at: sendDone + dup, kind: evArrival, node: to, from: from, env: env})
	}
}

// SetTimer schedules HandleTimer(id) on a node after delay.
func (n *Network) SetTimer(nodeID NodeID, id consensus.TimerID, delay consensus.Time) {
	nd := n.nodes[nodeID]
	if nd == nil {
		return
	}
	canceled := new(bool)
	nd.timers[id] = canceled
	n.push(&event{at: n.now + delay, kind: evTimer, node: nodeID, timerID: id, canceled: canceled})
}

// CancelTimer cancels a pending timer.
func (n *Network) CancelTimer(nodeID NodeID, id consensus.TimerID) {
	nd := n.nodes[nodeID]
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
	n.push(&event{at: at, kind: evFunc, fn: fn})
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
	for n.events.Len() > 0 {
		e := n.events[0]
		if e.at > until {
			break
		}
		heap.Pop(&n.events)
		if e.at > n.now {
			n.now = e.at
		}
		n.dispatch(e)
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
	for n.events.Len() > 0 {
		e := n.events[0]
		if e.at > cap {
			break
		}
		heap.Pop(&n.events)
		if e.canceled != nil && *e.canceled {
			continue
		}
		if e.at > n.now {
			n.now = e.at
		}
		n.dispatch(e)
		processed++
	}
	return processed
}

func (n *Network) dispatch(e *event) {
	switch e.kind {
	case evArrival:
		nd := n.nodes[e.node]
		if nd == nil || nd.crashed || nd.handler == nil {
			return
		}
		// The message queues behind the CPU; the paper's s msgs/sec.
		start := n.now
		if nd.busyUntil > start {
			start = nd.busyUntil
		}
		done := start + n.cfg.ProcTime
		nd.busyUntil = done
		n.push(&event{at: done, kind: evHandle, node: e.node, from: e.from, env: e.env})
	case evHandle:
		nd := n.nodes[e.node]
		if nd == nil || nd.crashed || nd.handler == nil {
			return
		}
		nd.handler.HandleMessage(n.now, consensus.Attributed(e.env, e.from))
	case evTimer:
		if e.canceled != nil && *e.canceled {
			return
		}
		nd := n.nodes[e.node]
		if nd == nil || nd.crashed || nd.handler == nil {
			return
		}
		delete(nd.timers, e.timerID)
		nd.handler.HandleTimer(n.now, e.timerID)
	case evFunc:
		e.fn(n.now)
	}
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
}

// Send implements runtime.Executor.
func (x *NodeExecutor) Send(to NodeID, env *consensus.Envelope) {
	x.net.Send(x.id, to, env)
}

// SetTimer implements runtime.Executor.
func (x *NodeExecutor) SetTimer(id consensus.TimerID, delay consensus.Time) {
	x.net.SetTimer(x.id, id, delay)
}

// CancelTimer implements runtime.Executor.
func (x *NodeExecutor) CancelTimer(id consensus.TimerID) {
	x.net.CancelTimer(x.id, id)
}

// String summarises the network state for debugging.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{t=%v nodes=%d events=%d}", n.now, len(n.nodes), n.events.Len())
}
