package pbft

import (
	"slices"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// parkedProposal records a buffered pre-prepare whose block this replica
// could not assemble on its last delivery (DESIGN.md 5n). missing lists
// the IDs the pool lacked, nil when it held them all and they made
// another TxRoot; asked the IDs of the fetch sent; bodies the reply to it.
type parkedProposal struct {
	digest         gcrypto.Hash
	missing, asked []gcrypto.Hash
	bodies         map[gcrypto.Hash]*types.Transaction
}

// assemble returns the block pp names, built from a fetch reply's
// bodies first and then the pool — delivered bodies never pass the
// pool's dedup-by-ID — or the IDs found nowhere, or nil for both when
// every body was found and the block does not hash to the header's
// TxRoot.
func (e *Engine) assemble(pp *PrePrepare) (*types.Block, []gcrypto.Hash) {
	if b := e.knownBlock(pp.Seq, pp.Digest); b != nil {
		return b, nil
	}
	var bodies map[gcrypto.Hash]*types.Transaction
	if p := e.parked[pp.Seq]; p != nil && p.digest == pp.Digest {
		bodies = p.bodies
	}
	txs := make([]types.Transaction, len(pp.TxIDs))
	var missing []gcrypto.Hash
	for i, id := range pp.TxIDs {
		tx := bodies[id]
		if tx == nil {
			tx = e.cfg.App.PooledTx(id)
		}
		if tx == nil {
			missing = append(missing, id)
			continue
		}
		txs[i] = *tx
	}
	if len(missing) > 0 {
		return nil, missing
	}
	b := &types.Block{Header: pp.Header, Txs: txs}
	if b.VerifyTxRoot() != nil {
		return nil, nil
	}
	return b, nil
}

// knownBlock returns the block of digest at seq if this replica holds
// it whole: in its instance log, or from an instance the last view
// change dropped — a fetched block, or one beside a pooled variant, is
// in no pool to assemble it from again.
func (e *Engine) knownBlock(seq uint64, digest gcrypto.Hash) *types.Block {
	if inst := e.insts[seq]; inst != nil && inst.block != nil && inst.digest == digest {
		return inst.block
	}
	return e.carried[digest]
}

// assemblable reports whether redelivering a buffered pre-prepare can
// get further than last time: it is not parked, a reply brought bodies,
// or the pool now holds every body it lacked.
func (e *Engine) assemblable(env *consensus.Envelope) bool {
	slot, _ := consensus.PeekSlot(env)
	p := e.parked[slot.Seq]
	if p == nil || p.digest != slot.Digest || p.bodies != nil {
		return true
	}
	for _, id := range p.missing {
		if e.cfg.App.PooledTx(id) == nil {
			return false
		}
	}
	return p.missing != nil
}

// park holds a pre-prepare whose block cannot be assembled in the
// hold-back buffer and asks for the bodies: the missing ones the first
// time, all of them once the ones found prove wrong.
func (e *Engine) park(pp *PrePrepare, env *consensus.Envelope, missing []gcrypto.Hash) []consensus.Action {
	p := e.parked[pp.Seq]
	if p != nil && p.digest != pp.Digest {
		return nil // a second proposal for the slot
	}
	e.bufferVote(pp.Seq, env)
	if p == nil {
		p = &parkedProposal{digest: pp.Digest}
		e.parked[pp.Seq] = p
		e.node.ProposalsParked.Add(1)
	}
	p.missing, p.bodies = missing, nil
	switch {
	case missing != nil && p.asked == nil:
		return e.sendFetch(pp, p, missing)
	case missing == nil && len(p.asked) < len(pp.TxIDs):
		return e.sendFetch(pp, p, pp.TxIDs)
	}
	return nil
}

// sendFetch asks the proposal's primary for bodies — or, for a value a
// NewView re-issued, the replicas whose prepares are in its proof: each
// accepted the proposal, so each held the block, which the new primary
// may never have seen.
func (e *Engine) sendFetch(pp *PrePrepare, p *parkedProposal, ids []gcrypto.Hash) []consensus.Action {
	p.asked = ids
	to := e.provers[pp.Digest]
	if len(to) == 0 {
		to = []gcrypto.Address{e.com.Primary(pp.View)}
	}
	env := e.seal(&Fetch{SlotHeader: pp.SlotHeader, IDs: ids})
	var acts []consensus.Action
	for _, addr := range to {
		if addr != e.self {
			e.node.FetchesSent.Add(1)
			acts = append(acts, consensus.Send{To: addr, Env: env})
		}
	}
	return acts
}

// proversOf maps each digest the NewView's proofs prepared to the
// members whose prepares are in those proofs.
func (e *Engine) proversOf(nv *NewView) map[gcrypto.Hash][]gcrypto.Address {
	out := make(map[gcrypto.Hash][]gcrypto.Address)
	for _, raw := range nv.ViewChangeEnvs {
		var vc ViewChange
		if env, err := e.decode(raw); err != nil || consensus.OpenUnverified(env, consensus.KindViewChange, &vc) != nil {
			continue
		}
		for _, proof := range vc.Prepared {
			for _, raw := range proof.PrepareEnvs {
				prep, err := e.decode(raw)
				if err == nil && e.com.IsMember(prep.From) && !slices.Contains(out[proof.Digest], prep.From) {
					out[proof.Digest] = append(out[proof.Digest], prep.From)
				}
			}
		}
	}
	return out
}

// onFetch answers a member's fetch request with the bodies it names, if
// this replica holds the block; a reply goes to onFetchReply.
func (e *Engine) onFetch(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var f Fetch
	if consensus.OpenUnverified(env, consensus.KindFetch, &f) != nil || f.Era != e.cfg.Era {
		return nil
	}
	if len(f.Txs) > 0 {
		return e.onFetchReply(now, &f)
	}
	block := e.knownBlock(f.Seq, f.Digest)
	if block == nil || !e.com.IsMember(env.From) || env.Verify() != nil {
		return nil
	}
	reply := &Fetch{SlotHeader: f.SlotHeader}
	for i := range block.Txs {
		if slices.Contains(f.IDs, block.Txs[i].ID()) {
			reply.Txs = append(reply.Txs, block.Txs[i])
		}
	}
	if len(reply.Txs) == 0 {
		return nil
	}
	e.node.FetchesAnswered.Add(1)
	out := consensus.Unsealed(e.cfg.Key, reply)
	out.Sender = e.index
	return []consensus.Action{consensus.Send{To: env.From, Env: out}}
}

// onFetchReply hands a parked proposal the bodies of a reply that holds
// exactly what its fetch asked for, and redelivers it; any other reply
// is ignored. The assembly decides: a block that still misses TxRoot is
// asked for whole, once (park).
func (e *Engine) onFetchReply(now consensus.Time, f *Fetch) []consensus.Action {
	p := e.parked[f.Seq]
	if p == nil || p.digest != f.Digest || len(f.Txs) != len(p.asked) {
		return nil
	}
	bodies := make(map[gcrypto.Hash]*types.Transaction, len(f.Txs))
	for i := range f.Txs {
		bodies[f.Txs[i].ID()] = &f.Txs[i]
	}
	for _, id := range p.asked {
		if bodies[id] == nil {
			return nil
		}
	}
	p.bodies = bodies
	return e.fd.settle(e.busy(), e.drainBuffered(now, nil))
}
