package pbft

import (
	"sync/atomic"

	"gpbft/internal/consensus"
	"gpbft/internal/types"
)

// The request path (DESIGN.md 5k): a request is decoded once per node and
// pooled by one routine, and what this node alone may hold is relayed at
// once or put on the node's one held list.

// DecodeRequest decodes a request's transaction, unverified. keep, for
// the transport's read loop before it queues env, leaves it on the
// envelope for the gate, the prewarm and OpenRequest to share.
func DecodeRequest(env *consensus.Envelope, keep bool) (*types.Transaction, error) {
	v, err := env.Decoded(keep, func() (any, error) {
		var req Request
		if err := consensus.OpenUnverified(env, consensus.KindRequest, &req); err != nil {
			return nil, err
		}
		return &req.Tx, nil
	})
	tx, _ := v.(*types.Transaction)
	return tx, err
}

// OpenRequest opens a request envelope — the read loop's decode, or a copy
// of its own — and checks the transaction by its own signature: the
// envelope is unsealed (NewRequest). The check is memoized
// (VerifyCached): the read loop prewarmed it, or an earlier relay or a
// local submission made it.
func OpenRequest(env *consensus.Envelope) (*types.Transaction, error) {
	tx, err := DecodeRequest(env, false)
	if err == nil {
		err = tx.VerifyCached()
	}
	if err != nil {
		return nil, err
	}
	return tx, nil
}

// PoolRequest opens a request another node sent and pools it, nil when it
// does not open or the pool refuses it. only reports whether this node
// may be the transaction's only holder: com does not hold the sender (a
// client's or an observer's single send), or is not known yet. A member's
// relay is terminal, its sender broadcast it; a local submission is
// always its node's alone (OnRequest).
func PoolRequest(app Application, com *consensus.Committee, env *consensus.Envelope) (tx *types.Transaction, only bool) {
	tx, err := OpenRequest(env)
	if err != nil || app.SubmitTx(tx) != nil {
		return nil, false
	}
	return tx, com == nil || !com.IsMember(env.From)
}

// Held is a node's held list: pooled transactions it may alone hold and
// cannot relay yet — before Init, in an era switch's pause, or during a
// view change. The era layer owns it and hands each era's instance a
// reference; Init, era entry and a new view relay each entry once. No
// cap: every entry passed pool admission.
type Held struct {
	held []types.Transaction

	in, out atomic.Uint64 // entries added and taken; read from any goroutine
}

// Add holds tx.
func (h *Held) Add(tx *types.Transaction) { h.held = append(h.held, *tx); h.in.Add(1) }

// Take empties the list for its relay.
func (h *Held) Take() []types.Transaction {
	txs := h.held
	h.held = nil
	h.out.Add(uint64(len(txs)))
	return txs
}

// Counts returns how many transactions were held and how many re-relayed.
func (h *Held) Counts() (held, rerelayed uint64) { return h.in.Load(), h.out.Load() }
