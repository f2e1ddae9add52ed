package byzantine

import (
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// SnapshotLiar wraps an engine that behaves honestly in consensus but
// corrupts every snapshot it serves to a fast-syncing peer: the bytes
// it ships are bit-flipped after encoding, then re-sealed with its own
// key so the envelope itself verifies. It models a peer trying to feed
// a joiner fabricated state. The defense under test is the receiver's
// verification chain — decode, producer signature, quorum-agreed root —
// which must reject the snapshot and fall back to pulling blocks, never
// installing a byte of the lie.
type SnapshotLiar struct {
	Inner consensus.Engine
	Key   *gcrypto.KeyPair
	// Lied counts corrupted snapshot responses shipped.
	Lied int
}

// Init implements consensus.Engine.
func (l *SnapshotLiar) Init(now consensus.Time) []consensus.Action {
	return l.mutate(l.Inner.Init(now))
}

// OnEnvelope implements consensus.Engine.
func (l *SnapshotLiar) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	return l.mutate(l.Inner.OnEnvelope(now, env))
}

// OnTimer implements consensus.Engine.
func (l *SnapshotLiar) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	return l.mutate(l.Inner.OnTimer(now, id))
}

// OnRequest implements consensus.Engine.
func (l *SnapshotLiar) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	return l.mutate(l.Inner.OnRequest(now, tx))
}

// OnCommitApplied implements consensus.CommitNotifiable.
func (l *SnapshotLiar) OnCommitApplied(now consensus.Time) []consensus.Action {
	return l.mutate(commitApplied(l.Inner, now))
}

func (l *SnapshotLiar) mutate(acts []consensus.Action) []consensus.Action {
	for i, a := range acts {
		send, ok := a.(consensus.Send)
		if !ok {
			continue
		}
		lie := l.corrupt(send.Env)
		if lie == nil {
			continue
		}
		l.Lied++
		acts[i] = consensus.Send{To: send.To, Env: lie}
	}
	return acts
}

// corrupt rebuilds a snapshot response with damaged payload bytes,
// validly sealed; nil for every other message.
func (l *SnapshotLiar) corrupt(env *consensus.Envelope) *consensus.Envelope {
	if env.MsgKind != consensus.KindBlockSync {
		return nil
	}
	var resp core.SnapshotResponse
	if consensus.Open(env, consensus.KindBlockSync, &resp) != nil {
		return nil
	}
	if len(resp.Data) == 0 {
		return nil
	}
	resp.Data[len(resp.Data)/2] ^= 0x20
	return consensus.Seal(l.Key, &resp)
}
