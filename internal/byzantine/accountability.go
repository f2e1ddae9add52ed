package byzantine

import (
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// doubleVote, whenever the node broadcasts a prepare or commit vote,
// also signs and sends a conflicting twin (same era, view and
// sequence, different digest) to the SAME audience. Unlike
// equivocation — which splits the audience and hopes neither half
// converges — it hands every honest replica both signed votes, i.e.
// exactly the self-verifying double-sign proof the accountability
// pipeline is built to capture. It is a detectability probe more than
// a safety attack: correct replicas ignore the losing vote, but each
// one can now convict the sender.
func (a *adversary) doubleVote(acts []consensus.Action) []consensus.Action {
	out := make([]consensus.Action, 0, len(acts))
	for _, act := range acts {
		out = append(out, act)
		bc, ok := act.(consensus.Broadcast)
		if !ok {
			continue
		}
		twin := a.twinVote(bc.Env)
		if twin == nil {
			continue
		}
		for _, to := range bc.To {
			out = append(out, consensus.Send{To: to, Env: twin})
		}
	}
	return out
}

// twinVote builds a validly signed conflicting vote for prepare/commit
// broadcasts, nil for everything else: the same slot re-sealed over
// another digest.
func (a *adversary) twinVote(env *consensus.Envelope) *consensus.Envelope {
	slot, ok := consensus.PeekSlot(env)
	if !ok {
		return nil
	}
	slot.Digest = flipDigest(slot.Digest)
	var twin *consensus.Envelope
	switch env.MsgKind {
	case consensus.KindPrepare:
		twin = consensus.Seal(a.key, &pbft.Prepare{SlotHeader: slot})
	case consensus.KindCommit:
		twin = consensus.Seal(a.key, &pbft.Commit{SlotHeader: slot})
	default:
		return nil
	}
	twin.Sender = env.Sender
	return twin
}

func flipDigest(h gcrypto.Hash) gcrypto.Hash {
	h[len(h)-1] ^= 0xff
	return h
}

// SybilPair is two chain identities operated from one physical spot: the
// Sybil pattern of Section IV-A1 ("different nodes cannot report the
// same geographic information at the same time"). Each Reports call
// yields one location report per identity, both claiming the shared
// cell at the same instant — committed together they are exactly the
// simultaneous same-cell occupancy SybilSameCell evidence proves.
type SybilPair struct {
	A, B *gcrypto.KeyPair
	// Cell is the single physical location both identities claim.
	Cell geo.Point

	nonceA, nonceB uint64
}

// Reports returns the pair's next simultaneous location reports, signed
// and ready to submit.
func (s *SybilPair) Reports(ts time.Time) (*types.Transaction, *types.Transaction) {
	s.nonceA++
	s.nonceB++
	mk := func(kp *gcrypto.KeyPair, nonce uint64) *types.Transaction {
		tx := &types.Transaction{
			Type:  types.TxLocationReport,
			Nonce: nonce,
			Geo:   types.GeoInfo{Location: s.Cell, Timestamp: ts},
		}
		tx.Sign(kp)
		return tx
	}
	return mk(s.A, s.nonceA), mk(s.B, s.nonceB)
}

// Addresses returns the pair's two chain identities.
func (s *SybilPair) Addresses() (gcrypto.Address, gcrypto.Address) {
	return s.A.Address(), s.B.Address()
}
