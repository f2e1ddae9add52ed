package pbft

import "gpbft/internal/consensus"

// StoredVotes counts the vote envelopes of one kind the engine holds for
// seq: in the instance log, in the hold-back buffer, and in the
// seen-vote index. Tests use it to show that nothing unverified is
// ever stored.
func (e *Engine) StoredVotes(kind consensus.MsgKind, seq uint64) (logged, buffered, seen int) {
	if inst := e.insts[seq]; inst != nil {
		logged = len(inst.prepares)
		if kind == consensus.KindCommit {
			logged = len(inst.commits)
		}
	}
	for _, env := range e.pendingMsgs[seq] {
		if env.MsgKind == kind {
			buffered++
		}
	}
	for k := range e.seenVotes {
		if k.kind == kind && k.seq == seq {
			seen++
		}
	}
	return logged, buffered, seen
}

// PreparedProof reports whether seq is prepared and whether the proof
// the engine would exhibit for it in a view change verifies.
func (e *Engine) PreparedProof(seq uint64) (prepared, verifies bool) {
	inst := e.insts[seq]
	if inst == nil || !inst.prepared {
		return false, false
	}
	return true, e.verifyPreparedProof(e.proofForInstance(seq, inst))
}

// LowWater returns the stable point: the highest sequence the replica
// knows decided.
func (e *Engine) LowWater() uint64 { return e.lowWater }

// The failure-detection constants (failure.go), for tests that drive the
// measured rule.
const (
	RoundWindow    = roundWindow
	RoundFactor    = roundFactor
	MinTimeout     = minTimeout
	InitialTimeout = initialTimeout
)
