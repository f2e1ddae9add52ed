package byzantine

import (
	"gpbft/internal/consensus"
	"gpbft/internal/core"
)

// lieAboutSnapshots leaves consensus honest but corrupts every
// snapshot the node serves to a fast-syncing peer: the bytes it ships
// are bit-flipped after encoding, then re-sealed with its own key so
// the envelope itself verifies. It models a peer trying to feed a
// joiner fabricated state. The defense under test is the receiver's
// verification chain — decode, producer signature, quorum-agreed root —
// which must reject the snapshot and fall back to pulling blocks, never
// installing a byte of the lie.
func (a *adversary) lieAboutSnapshots(acts []consensus.Action) []consensus.Action {
	for i, act := range acts {
		send, ok := act.(consensus.Send)
		if !ok {
			continue
		}
		if lie := a.corruptSnapshot(send.Env); lie != nil {
			acts[i] = consensus.Send{To: send.To, Env: lie}
		}
	}
	return acts
}

// corruptSnapshot rebuilds a snapshot response with damaged payload
// bytes, validly sealed; nil for every other message.
func (a *adversary) corruptSnapshot(env *consensus.Envelope) *consensus.Envelope {
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
	return consensus.Seal(a.key, &resp)
}
