package simnet

import "gpbft/internal/consensus"

// KindStat aggregates traffic for one message kind.
type KindStat struct {
	Kind  consensus.MsgKind
	Count int64
	Bytes int64
}

// Traffic meters every transmission attempt (the paper's communication
// cost is wire traffic, so bytes are counted even when the simulator
// later drops the message). Per-kind totals sit in an array indexed by
// kind and per-node totals on the node itself, so a send updates
// counters without a map lookup.
type Traffic struct {
	totalMsgs  int64
	totalBytes int64
	perKind    [256]KindStat
	nodes      map[NodeID]*node
}

func newTraffic(nodes map[NodeID]*node) *Traffic { return &Traffic{nodes: nodes} }

// record notes one transmission; to is nil when the receiver is not
// registered.
func (t *Traffic) record(from, to *node, kind consensus.MsgKind, size int) {
	t.totalMsgs++
	t.totalBytes += int64(size)
	ks := &t.perKind[kind]
	ks.Count++
	ks.Bytes += int64(size)
	from.sent += int64(size)
	if to != nil {
		to.recv += int64(size)
	}
}

// Messages returns the total transmission count.
func (t *Traffic) Messages() int64 { return t.totalMsgs }

// Bytes returns the total bytes transmitted.
func (t *Traffic) Bytes() int64 { return t.totalBytes }

// KB returns total kilobytes (the unit of the paper's Figures 5-6).
func (t *Traffic) KB() float64 { return float64(t.totalBytes) / 1024 }

// ByKind returns per-kind stats sorted by kind.
func (t *Traffic) ByKind() []KindStat {
	var out []KindStat
	for k, ks := range t.perKind {
		if ks.Count > 0 {
			ks.Kind = consensus.MsgKind(k)
			out = append(out, ks)
		}
	}
	return out
}

// SentBy returns bytes sent by a node.
func (t *Traffic) SentBy(id NodeID) int64 {
	if nd := t.nodes[id]; nd != nil {
		return nd.sent
	}
	return 0
}

// ReceivedBy returns bytes addressed to a registered node.
func (t *Traffic) ReceivedBy(id NodeID) int64 {
	if nd := t.nodes[id]; nd != nil {
		return nd.recv
	}
	return 0
}

// Reset zeroes the meter (used between measurement phases so warm-up
// traffic is excluded).
func (t *Traffic) Reset() {
	t.totalMsgs = 0
	t.totalBytes = 0
	t.perKind = [256]KindStat{}
	for _, nd := range t.nodes {
		nd.sent, nd.recv = 0, 0
	}
}
