// Package byzantine implements the adversaries used to probe the
// protocol's fault tolerance: the paper's threat model allows up to
// f = ⌊(n−1)/3⌋ endorsers to be "faulty, either dishonest or
// frustrated". Wrap decorates an honest engine and distorts its
// behaviour at the action stream, so the attack code cannot
// accidentally depend on engine internals.
package byzantine

import (
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// Fault selects an adversarial behaviour for a node.
type Fault int

const (
	// Honest is the default.
	Honest Fault = iota
	// FaultSilent joins but never participates.
	FaultSilent
	// FaultEquivocate sends conflicting proposals to disjoint halves
	// of the committee when leading.
	FaultEquivocate
	// FaultWithholdVotes suppresses own commit votes.
	FaultWithholdVotes
	// FaultDoubleVote signs conflicting prepare/commit votes and hands
	// both to every peer — the offense the accountability pipeline
	// detects, proves and expels.
	FaultDoubleVote
	// FaultSnapshotLie serves bit-flipped snapshot bytes to
	// fast-syncing peers while behaving honestly otherwise.
	FaultSnapshotLie
)

// Wrap returns inner distorted by fault f; key signs what the
// adversary forges. Honest (and any unknown fault) returns inner
// itself, FaultSilent an engine that runs nothing. The wrapper passes
// commit notifications on: the era layer halts there at the boundary
// block of a switching era, and a fault is not a node that never
// leaves its first era.
func Wrap(f Fault, inner consensus.Engine, key *gcrypto.KeyPair) consensus.Engine {
	var rewrite func(*adversary, []consensus.Action) []consensus.Action
	switch f {
	case FaultSilent:
		return silent{}
	case FaultEquivocate:
		rewrite = (*adversary).equivocate
	case FaultWithholdVotes:
		rewrite = (*adversary).withholdCommits
	case FaultDoubleVote:
		rewrite = (*adversary).doubleVote
	case FaultSnapshotLie:
		rewrite = (*adversary).lieAboutSnapshots
	default:
		return inner
	}
	return &adversary{inner: inner, key: key, rewrite: rewrite}
}

// adversary runs an honest engine and rewrites every action list it
// returns.
type adversary struct {
	inner   consensus.Engine
	key     *gcrypto.KeyPair
	rewrite func(*adversary, []consensus.Action) []consensus.Action
}

// Init implements consensus.Engine.
func (a *adversary) Init(now consensus.Time) []consensus.Action {
	return a.rewrite(a, a.inner.Init(now))
}

// OnEnvelope implements consensus.Engine.
func (a *adversary) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	return a.rewrite(a, a.inner.OnEnvelope(now, env))
}

// OnTimer implements consensus.Engine.
func (a *adversary) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	return a.rewrite(a, a.inner.OnTimer(now, id))
}

// OnRequest implements consensus.Engine.
func (a *adversary) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	return a.rewrite(a, a.inner.OnRequest(now, tx))
}

// OnCommitApplied implements consensus.CommitNotifiable.
func (a *adversary) OnCommitApplied(now consensus.Time) []consensus.Action {
	if cn, ok := a.inner.(consensus.CommitNotifiable); ok {
		return a.rewrite(a, cn.OnCommitApplied(now))
	}
	return nil
}

// silent participates in nothing: it models a "frustrated" endorser
// that joined the committee and then stopped serving (distinct from a
// crash — the node is reachable, it just never responds).
type silent struct{}

func (silent) Init(consensus.Time) []consensus.Action { return nil }

func (silent) OnEnvelope(consensus.Time, *consensus.Envelope) []consensus.Action { return nil }

func (silent) OnTimer(consensus.Time, consensus.TimerID) []consensus.Action { return nil }

func (silent) OnRequest(consensus.Time, *types.Transaction) []consensus.Action { return nil }

// equivocate sends DIFFERENT proposals to the two halves of every
// pre-prepare's audience — the classic safety attack a correct PBFT
// must absorb (backups cross-check prepares, neither half reaches 2f
// matching).
func (a *adversary) equivocate(acts []consensus.Action) []consensus.Action {
	out := make([]consensus.Action, 0, len(acts))
	for _, act := range acts {
		bc, ok := act.(consensus.Broadcast)
		if !ok || bc.Env.MsgKind != consensus.KindPrePrepare || len(bc.To) < 2 {
			out = append(out, act)
			continue
		}
		var pp pbft.PrePrepare
		if err := consensus.Open(bc.Env, consensus.KindPrePrepare, &pp); err != nil {
			out = append(out, act)
			continue
		}
		// Craft a conflicting twin: same (era, view, seq) and
		// transactions, a mutated header (timestamp shifted), re-signed.
		twin := pp
		twin.Header.Timestamp = twin.Header.Timestamp.Add(1)
		twin.Digest = twin.Header.Hash()
		twinEnv := consensus.Seal(a.key, &twin)
		twinEnv.Sender = bc.Env.Sender

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

// withholdCommits suppresses the node's own commit broadcasts — a
// liveness attack: the withholder still prepares (so it looks alive)
// but never helps commit.
func (a *adversary) withholdCommits(acts []consensus.Action) []consensus.Action {
	out := acts[:0]
	for _, act := range acts {
		if bc, ok := act.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindCommit {
			continue
		}
		out = append(out, act)
	}
	return out
}
