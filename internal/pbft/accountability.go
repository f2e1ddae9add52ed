package pbft

import (
	"gpbft/internal/consensus"
	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
)

// Double-sign detection. A correct replica sends at most one digest per
// vote kind per (view, seq) — its own WAL enforces that even across
// crashes — so two verified envelopes from one sender disagreeing on
// the digest for one slot are proof of Byzantine behavior. The engine
// remembers the first vote it sees for every live slot and, on a
// conflicting second one, hands a self-verifying evidence record to the
// configured sink (the era layer, which turns it into an evidence
// transaction).
//
// The seen-vote index is bounded: prepares and commits are only indexed
// inside the watermark window and pruned with the sent-vote ledgers at
// every stable checkpoint; pre-prepares only for the current view's
// primary at the single in-flight height.

// seenSlot identifies one vote slot from one sender.
type seenSlot struct {
	kind consensus.MsgKind
	view uint64
	seq  uint64
	from gcrypto.Address
}

// seenVote retains the first verified vote for a slot; the envelope is
// kept because it becomes half of the proof if a conflict shows up.
type seenVote struct {
	digest gcrypto.Hash
	env    *consensus.Envelope
}

// noteVote cross-checks a verified vote envelope against the earlier
// votes of the same sender for the same slot, emitting a DoubleSign
// record on conflict. Callers must pass envelopes that already passed
// consensus.Open (the proof embeds them verbatim).
func (e *Engine) noteVote(env *consensus.Envelope, h *consensus.SlotHeader) {
	if e.cfg.EvidenceSink == nil {
		return
	}
	k := seenSlot{kind: env.MsgKind, view: h.View, seq: h.Seq, from: env.From}
	prev, ok := e.seenVotes[k]
	if !ok {
		e.seenVotes[k] = seenVote{digest: h.Digest, env: env}
		return
	}
	if prev.digest == h.Digest || e.accused[env.From] {
		return // retransmission, or offender already reported this era
	}
	rec, err := evidence.NewDoubleSign(prev.env, env)
	if err != nil {
		return
	}
	e.accused[env.From] = true
	e.cfg.EvidenceSink(rec)
}

// pruneSeenVotes drops seen-vote entries at or below the stable
// checkpoint, alongside pruneSentVotes.
func (e *Engine) pruneSeenVotes(seq uint64) {
	for k := range e.seenVotes {
		if k.seq <= seq {
			delete(e.seenVotes, k)
		}
	}
}
