package byzantine

import (
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// DoubleVoter wraps an engine and, whenever it broadcasts a prepare or
// commit vote, also signs and sends a conflicting twin (same era, view
// and sequence, different digest) to the SAME audience. Unlike the
// Equivocator — which splits the audience and hopes neither half
// converges — the DoubleVoter hands every honest replica both signed
// votes, i.e. exactly the self-verifying double-sign proof the
// accountability pipeline is built to capture. It is a detectability
// probe more than a safety attack: correct replicas ignore the losing
// vote, but each one can now convict the sender.
type DoubleVoter struct {
	Inner consensus.Engine
	Key   *gcrypto.KeyPair
	// Doubled counts emitted conflicting vote pairs.
	Doubled int
}

// Init implements consensus.Engine.
func (d *DoubleVoter) Init(now consensus.Time) []consensus.Action {
	return d.mutate(d.Inner.Init(now))
}

// OnEnvelope implements consensus.Engine.
func (d *DoubleVoter) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	return d.mutate(d.Inner.OnEnvelope(now, env))
}

// OnTimer implements consensus.Engine.
func (d *DoubleVoter) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	return d.mutate(d.Inner.OnTimer(now, id))
}

// OnRequest implements consensus.Engine.
func (d *DoubleVoter) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	return d.mutate(d.Inner.OnRequest(now, tx))
}

func (d *DoubleVoter) mutate(acts []consensus.Action) []consensus.Action {
	out := make([]consensus.Action, 0, len(acts))
	for _, a := range acts {
		out = append(out, a)
		bc, ok := a.(consensus.Broadcast)
		if !ok {
			continue
		}
		twin := d.twin(bc.Env)
		if twin == nil {
			continue
		}
		d.Doubled++
		for _, to := range bc.To {
			out = append(out, consensus.Send{To: to, Env: twin})
		}
	}
	return out
}

// twin builds a validly signed conflicting vote for prepare/commit
// broadcasts, nil for everything else: the same slot re-sealed over
// another digest.
func (d *DoubleVoter) twin(env *consensus.Envelope) *consensus.Envelope {
	slot, ok := consensus.PeekSlot(env)
	if !ok {
		return nil
	}
	slot.Digest = flipDigest(slot.Digest)
	switch env.MsgKind {
	case consensus.KindPrepare:
		return consensus.Seal(d.Key, &pbft.Prepare{SlotHeader: slot})
	case consensus.KindCommit:
		return consensus.Seal(d.Key, &pbft.Commit{SlotHeader: slot})
	default:
		return nil
	}
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

// LocationSpoofer is a device that reports a location it does not
// occupy — it claims Claimed while physically sitting elsewhere. Nearby
// honest endorsers who can see the claimed cell is empty file disputing
// witness statements; a MinWitnesses quorum of those becomes
// LocationSpoof evidence against it.
type LocationSpoofer struct {
	Key *gcrypto.KeyPair
	// Claimed is the fabricated position.
	Claimed geo.Point

	nonce uint64
}

// Report returns the spoofer's next fabricated location report.
func (l *LocationSpoofer) Report(ts time.Time) *types.Transaction {
	l.nonce++
	tx := &types.Transaction{
		Type:  types.TxLocationReport,
		Nonce: l.nonce,
		Geo:   types.GeoInfo{Location: l.Claimed, Timestamp: ts},
	}
	tx.Sign(l.Key)
	return tx
}

// ClaimedCell returns the geohash cell of the fabricated position.
func (l *LocationSpoofer) ClaimedCell() string {
	return geo.MustEncode(l.Claimed, geo.CSCPrecision)
}
