// Package chaos is a deterministic fault-injection harness for the
// G-PBFT stack. It drives seeded random schedules of crash, restart,
// partition, heal and message-drop faults against simulated clusters
// and checks the crash-recovery safety invariants after every step:
// no fork, no committed-height regression, no double-signed
// conflicting votes anywhere in the message trace, and liveness once
// the faults are healed.
//
// Every run is reproducible from its seed: a failing schedule can be
// replayed exactly by constructing a Cluster with the same Options.
package chaos

import (
	"fmt"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/simnet"
)

// VoteID identifies one slot a replica may vote in. A correct replica
// signs at most one digest per VoteID in its lifetime — across crashes
// and restarts. Two different digests under the same VoteID are a
// double-sign, the safety violation the consensus WAL exists to
// prevent.
type VoteID struct {
	Sender gcrypto.Address
	Kind   consensus.MsgKind
	Era    uint64
	View   uint64
	Seq    uint64
}

// Checker watches every envelope a live sender emits (via the
// simulator's Tap) and records conflicting votes. It sees messages
// that are later dropped or partitioned away too: once signed and
// sent, a vote is out in the world regardless of delivery.
type Checker struct {
	seen       map[VoteID]gcrypto.Hash
	allowed    map[gcrypto.Address]bool
	violations []string
}

// NewChecker creates an empty checker.
func NewChecker() *Checker {
	return &Checker{
		seen:    make(map[VoteID]gcrypto.Hash),
		allowed: make(map[gcrypto.Address]bool),
	}
}

// Allow exempts an address from the double-sign invariant: a declared
// adversary (byzantine.DoubleVoter) equivocates on purpose, and the
// property under test shifts from "nobody equivocates" to "the honest
// majority stays safe and convicts the equivocator".
func (ck *Checker) Allow(addr gcrypto.Address) {
	ck.allowed[addr] = true
}

// Observe is the simnet Tap callback.
func (ck *Checker) Observe(_ consensus.Time, _, _ simnet.NodeID, env *consensus.Envelope) {
	ck.observeEnvelope(env)
}

func (ck *Checker) observeEnvelope(env *consensus.Envelope) {
	switch env.MsgKind {
	case consensus.KindPrePrepare, consensus.KindPrepare, consensus.KindCommit:
		m, ok := consensus.PeekSlot(env)
		if !ok {
			ck.violations = append(ck.violations, fmt.Sprintf("%s from %s: undecodable body", env.MsgKind, env.From.Short()))
			return
		}
		ck.note(env.From, env.MsgKind, m.Era, m.View, m.Seq, m.Digest)
	case consensus.KindRelay:
		// Gossip wraps the originator's sealed votes inside unsealed
		// relay frames: unwrap every inner envelope so an equivocation
		// is caught no matter how many hops carried it. The decoder
		// rejects nested relay frames, so the recursion terminates.
		entries, err := env.RelayEntries()
		if err != nil {
			ck.violations = append(ck.violations, fmt.Sprintf("%s from %s: undecodable relay frame", env.MsgKind, env.From.Short()))
			return
		}
		for _, e := range entries {
			ck.observeEnvelope(e.Env)
		}
	case consensus.KindNewView:
		// Re-issued pre-prepares ride inside the NewView body and are
		// never broadcast on their own: unpack them so a conflicting
		// re-issue cannot hide from the trace check.
		var m pbft.NewView
		if !decodeBody(env, &m) {
			return
		}
		for _, raw := range m.PrePrepares {
			inner, err := consensus.DecodeEnvelope(raw)
			if err != nil {
				continue
			}
			ck.observeEnvelope(inner)
		}
	}
}

func (ck *Checker) note(from gcrypto.Address, kind consensus.MsgKind, era, view, seq uint64, digest gcrypto.Hash) {
	if ck.allowed[from] {
		return
	}
	id := VoteID{Sender: from, Kind: kind, Era: era, View: view, Seq: seq}
	prev, ok := ck.seen[id]
	if !ok {
		ck.seen[id] = digest
		return
	}
	if prev != digest {
		ck.violations = append(ck.violations, fmt.Sprintf(
			"double-sign: %s signed two %s votes for era=%d view=%d seq=%d (%s vs %s)",
			from.Short(), kind, era, view, seq, prev.Short(), digest.Short()))
	}
}

// decodeBody decodes an envelope body without verifying the signature:
// the Tap only ever sees envelopes genuinely emitted by the simulated
// process that signed them.
func decodeBody(env *consensus.Envelope, dst interface {
	UnmarshalCanonical(*codec.Reader) error
}) bool {
	r := codec.NewReader(env.Body)
	if dst.UnmarshalCanonical(r) != nil {
		return false
	}
	return r.Finish() == nil
}

// Violations returns the accumulated safety violations.
func (ck *Checker) Violations() []string {
	return append([]string(nil), ck.violations...)
}

// VoteCount returns how many distinct vote slots have been observed
// (a sanity signal that the checker is actually seeing traffic).
func (ck *Checker) VoteCount() int { return len(ck.seen) }
