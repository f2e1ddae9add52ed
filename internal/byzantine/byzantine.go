// Package byzantine implements adversarial engine wrappers used to
// probe the protocol's fault tolerance: the paper's threat model
// allows up to f = ⌊(n−1)/3⌋ endorsers to be "faulty, either dishonest
// or frustrated". Each wrapper decorates an honest engine and distorts
// its behaviour at the action stream, so the attack code cannot
// accidentally depend on engine internals.
package byzantine

import (
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// commitApplied forwards a commit notification to an engine that takes
// one. Every wrapper passes it on: the era layer halts there at the
// boundary block of a switching era, and a wrapper models a fault, not
// a node that never leaves its first era.
func commitApplied(inner consensus.Engine, now consensus.Time) []consensus.Action {
	if cn, ok := inner.(consensus.CommitNotifiable); ok {
		return cn.OnCommitApplied(now)
	}
	return nil
}

// Silent is an engine that participates in nothing: it models a
// "frustrated" endorser that joined the committee and then stopped
// serving (distinct from a crash — the node is reachable, it just
// never responds).
type Silent struct{}

// Init implements consensus.Engine.
func (Silent) Init(consensus.Time) []consensus.Action { return nil }

// OnEnvelope implements consensus.Engine.
func (Silent) OnEnvelope(consensus.Time, *consensus.Envelope) []consensus.Action { return nil }

// OnTimer implements consensus.Engine.
func (Silent) OnTimer(consensus.Time, consensus.TimerID) []consensus.Action { return nil }

// OnRequest implements consensus.Engine.
func (Silent) OnRequest(consensus.Time, *types.Transaction) []consensus.Action { return nil }

// Equivocator wraps an engine and, whenever it broadcasts a
// pre-prepare, sends DIFFERENT proposals to the two halves of the
// audience — the classic safety attack a correct PBFT must absorb
// (backups cross-check prepares, neither half reaches 2f matching).
type Equivocator struct {
	Inner consensus.Engine
	Key   *gcrypto.KeyPair
	// Forks counts how many equivocating proposal pairs were emitted.
	Forks int
}

// Init implements consensus.Engine.
func (e *Equivocator) Init(now consensus.Time) []consensus.Action {
	return e.mutate(e.Inner.Init(now))
}

// OnEnvelope implements consensus.Engine.
func (e *Equivocator) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	return e.mutate(e.Inner.OnEnvelope(now, env))
}

// OnTimer implements consensus.Engine.
func (e *Equivocator) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	return e.mutate(e.Inner.OnTimer(now, id))
}

// OnRequest implements consensus.Engine.
func (e *Equivocator) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	return e.mutate(e.Inner.OnRequest(now, tx))
}

// OnCommitApplied implements consensus.CommitNotifiable.
func (e *Equivocator) OnCommitApplied(now consensus.Time) []consensus.Action {
	return e.mutate(commitApplied(e.Inner, now))
}

func (e *Equivocator) mutate(acts []consensus.Action) []consensus.Action {
	out := make([]consensus.Action, 0, len(acts))
	for _, a := range acts {
		bc, ok := a.(consensus.Broadcast)
		if !ok || bc.Env.MsgKind != consensus.KindPrePrepare || len(bc.To) < 2 {
			out = append(out, a)
			continue
		}
		var pp pbft.PrePrepare
		if err := consensus.Open(bc.Env, consensus.KindPrePrepare, &pp); err != nil {
			out = append(out, a)
			continue
		}
		// Craft a conflicting twin: same (era, view, seq) and
		// transactions, a mutated header (timestamp shifted), re-signed.
		twin := pp
		twin.Header.Timestamp = twin.Header.Timestamp.Add(1)
		twin.Digest = twin.Header.Hash()
		twinEnv := consensus.Seal(e.Key, &twin)
		twinEnv.Sender = bc.Env.Sender
		e.Forks++

		half := len(bc.To) / 2
		for i, to := range bc.To {
			env := bc.Env
			if i >= half {
				env = twinEnv
			}
			out = append(out, consensus.Send{To: to, Env: env})
		}
	}
	return out
}

// VoteWithholder wraps an engine and suppresses its own commit
// broadcasts — a liveness attack: the withholder still prepares (so it
// looks alive) but never helps commit.
type VoteWithholder struct {
	Inner consensus.Engine
	// Withheld counts suppressed commit broadcasts.
	Withheld int
}

// Init implements consensus.Engine.
func (v *VoteWithholder) Init(now consensus.Time) []consensus.Action {
	return v.mutate(v.Inner.Init(now))
}

// OnEnvelope implements consensus.Engine.
func (v *VoteWithholder) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	return v.mutate(v.Inner.OnEnvelope(now, env))
}

// OnTimer implements consensus.Engine.
func (v *VoteWithholder) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	return v.mutate(v.Inner.OnTimer(now, id))
}

// OnRequest implements consensus.Engine.
func (v *VoteWithholder) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	return v.mutate(v.Inner.OnRequest(now, tx))
}

// OnCommitApplied implements consensus.CommitNotifiable.
func (v *VoteWithholder) OnCommitApplied(now consensus.Time) []consensus.Action {
	return v.mutate(commitApplied(v.Inner, now))
}

func (v *VoteWithholder) mutate(acts []consensus.Action) []consensus.Action {
	out := acts[:0]
	for _, a := range acts {
		if bc, ok := a.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindCommit {
			v.Withheld++
			continue
		}
		out = append(out, a)
	}
	return out
}
