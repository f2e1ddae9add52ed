package pbft

import (
	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

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

// Held returns the held list this instance relays.
func (e *Engine) Held() *Held { return &e.node.Held }

// Tally is the counters of an instance's node, read at once, for tests
// that compare them.
type Tally struct {
	VotesVerified, VotesSurplus       uint64
	ProposalsHeld, ProposalsHeldFired uint64
	ProposalsParked                   uint64
	FetchesSent, FetchesAnswered      uint64
}

// Tally reads the counters of the node this instance counts for.
func (e *Engine) Tally() Tally {
	n := e.node
	return Tally{
		VotesVerified: n.VotesVerified.Load(), VotesSurplus: n.VotesSurplus.Load(),
		ProposalsHeld: n.ProposalsHeld.Load(), ProposalsHeldFired: n.ProposalsHeldFired.Load(),
		ProposalsParked: n.ProposalsParked.Load(),
		FetchesSent:     n.FetchesSent.Load(), FetchesAnswered: n.FetchesAnswered.Load(),
	}
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

// ProofSenders returns the senders of the prepares in the prepared proof
// the engine would exhibit for seq, in the proof's order.
func (e *Engine) ProofSenders(seq uint64) []gcrypto.Address {
	inst := e.insts[seq]
	if inst == nil {
		return nil
	}
	var out []gcrypto.Address
	for _, raw := range e.proofForInstance(seq, inst).PrepareEnvs {
		if env, err := e.decode(raw); err == nil {
			out = append(out, env.From)
		}
	}
	return out
}

// PreparedData is the data of a prepared record holding proof and b, as
// persistPrepared writes it.
func PreparedData(proof *PreparedProof, b *types.Block) []byte {
	return codec.Marshal(&preparedSlot{proof: *proof, block: *b})
}

// RecoveredPrepared reads data as RecoverState reads a prepared
// record's, and encodes what it recovered again.
func RecoveredPrepared(data []byte) ([]byte, bool) {
	d := RecoverState(0, []store.WALRecord{{Kind: store.WALPrepared, Data: data}})
	for _, slot := range d.Prepared {
		return PreparedData(&slot.proof, &slot.block), true
	}
	return nil, false
}
