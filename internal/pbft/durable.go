package pbft

import (
	"sort"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// WAL is the durable sink for consensus events. The engine appends a
// record before the corresponding vote leaves the replica
// (persist-before-send); a failed append suppresses the vote entirely.
// *store.WAL satisfies it.
type WAL interface {
	Append(rec store.WALRecord) error
}

// WALCompacter is the optional compaction surface of a WAL. When the
// configured WAL implements it, the engine truncates vote records at or
// below each stable checkpoint as the checkpoint stabilizes, bounding
// the log to the in-flight window. Best effort: a compaction failure
// never blocks consensus (the log stays larger, nothing is lost).
type WALCompacter interface {
	CompactBelow(era, seq uint64) (int64, error)
}

// voteKey identifies a vote slot: a correct replica sends at most one
// digest per kind per (view, seq) within an era.
type voteKey struct {
	View uint64
	Seq  uint64
}

// DurableState is what a replica can reconstruct about its own past
// behaviour from its write-ahead log: the view it had reached, every
// vote it may already have sent, and the prepared certificates it must
// still be able to exhibit in view changes.
type DurableState struct {
	Era  uint64
	View uint64
	// NewView is the encoded certificate of View, when it was recorded:
	// a restarted replica keeps handing it to peers that missed the view
	// change, as it did before the crash.
	NewView         []byte
	SentPrePrepares map[voteKey]gcrypto.Hash
	SentPrepares    map[voteKey]gcrypto.Hash
	SentCommits     map[voteKey]gcrypto.Hash
	// Prepared holds the highest-view prepared slot per sequence.
	Prepared map[uint64]*preparedSlot
}

// preparedSlot is the data of a prepared record: the prepared proof,
// whose pre-prepare names the block's transactions by ID only, and the
// block, so that a replica restarted with an empty pool rebuilds the
// instance from the record alone.
type preparedSlot struct {
	proof PreparedProof
	block types.Block
}

// Canonical states the record data's format: the proof, then the block.
func (s *preparedSlot) Canonical(c codec.Coder) {
	s.proof.Canonical(c)
	s.block.Canonical(c)
}

// RecoverState folds a WAL's records into the durable state for era.
// Records from other eras are ignored: they belong to consensus
// instances that can no longer conflict (older eras are complete; the
// chain rejects their messages), which also makes a crash between an
// era switch and the WAL rotation harmless.
func RecoverState(era uint64, recs []store.WALRecord) *DurableState {
	d := &DurableState{
		Era:             era,
		SentPrePrepares: make(map[voteKey]gcrypto.Hash),
		SentPrepares:    make(map[voteKey]gcrypto.Hash),
		SentCommits:     make(map[voteKey]gcrypto.Hash),
		Prepared:        make(map[uint64]*preparedSlot),
	}
	for i := range recs {
		rec := &recs[i]
		if rec.Era != era {
			continue
		}
		k := voteKey{View: rec.View, Seq: rec.Seq}
		switch rec.Kind {
		case store.WALPrePrepare:
			d.SentPrePrepares[k] = rec.Digest
		case store.WALPrepare:
			d.SentPrepares[k] = rec.Digest
		case store.WALPrepared:
			// The prepared record is also the promise of the commit vote,
			// whether or not the proof below survives.
			d.SentCommits[k] = rec.Digest
			slot, err := codec.Unmarshal[preparedSlot](rec.Data)
			if err != nil {
				continue // a damaged proof only costs liveness, never safety
			}
			if best, ok := d.Prepared[slot.proof.Seq]; !ok || slot.proof.View > best.proof.View {
				d.Prepared[slot.proof.Seq] = slot
			}
		case store.WALNewView:
			if rec.View > d.View {
				d.View, d.NewView = rec.View, rec.Data
			}
		case store.WALViewChange, store.WALEra:
			// Position/trace records; nothing to restore. A crash during
			// a view change simply restarts it from the last entered view.
		}
	}
	return d
}

// recordVote persists a vote before it may be sent. It returns false
// when the vote must be suppressed: either this replica already
// persisted a DIFFERENT digest for the same (kind, view, seq) — the
// no-equivocation-after-restart rule — or the WAL refused the append
// (fail-safe: a vote that is not durable never reaches the network).
// Re-sending an identical vote is allowed and not re-persisted;
// ed25519 signing is deterministic, so the bytes cannot diverge.
func (e *Engine) recordVote(kind store.WALKind, sent map[voteKey]gcrypto.Hash, view, seq uint64, digest gcrypto.Hash, data []byte) bool {
	k := voteKey{View: view, Seq: seq}
	if prev, ok := sent[k]; ok {
		return prev == digest
	}
	if e.wal != nil {
		err := e.wal.Append(store.WALRecord{
			Kind: kind, Era: e.cfg.Era, View: view, Seq: seq, Digest: digest, Data: data,
		})
		if err != nil {
			return false
		}
	}
	sent[k] = digest
	return true
}

// recordPosition persists a non-vote protocol event (view change
// started, new view entered, with data its certificate) best-effort.
// These records restore the replica's position after a crash but are not
// equivocation-critical: losing one costs at most a repeated view change,
// never safety, so a failing disk does not wedge view transitions. A
// record the log refuses with its data (a certificate too large for a
// frame) is kept without it.
func (e *Engine) recordPosition(kind store.WALKind, view uint64, data []byte) {
	if e.wal == nil {
		return
	}
	rec := store.WALRecord{Kind: kind, Era: e.cfg.Era, View: view, Data: data}
	if e.wal.Append(rec) != nil && data != nil {
		rec.Data = nil
		_ = e.wal.Append(rec)
	}
}

// persistPrepared stores the instance's prepared certificate so a
// restarted replica can still exhibit the value in view changes. It
// returns false if the proof could not be made durable — the caller
// then refuses to advance to prepared (and to send its commit).
//
// The record doubles as the persist-before-send record of this replica's
// commit vote for the same (view, seq, digest): a prepared replica sends
// that commit and no other, at once or when the parent gate opens, and
// RecoverState reads the record back into the sent-commit ledger. So the
// entry is made here, and the send paths only look it up
// (commitPromised): one fsync per prepared slot, not two.
func (e *Engine) persistPrepared(seq uint64, inst *instance) bool {
	var data []byte
	if e.wal != nil {
		data = codec.Marshal(&preparedSlot{proof: *e.proofForInstance(seq, inst), block: *inst.block})
	}
	return e.recordVote(store.WALPrepared, e.sentCommits, inst.view, seq, inst.digest, data)
}

// commitPromised reports whether the sent-commit ledger holds this
// instance's digest for (view, seq) — the entry persistPrepared made, or
// the one recovered from the log. A commit for anything else would
// contradict a vote that may already be on the wire, and is withheld.
func (e *Engine) commitPromised(inst *instance, seq uint64) bool {
	prev, ok := e.sentCommits[voteKey{View: inst.view, Seq: seq}]
	return ok && prev == inst.digest
}

// restoreDurable installs recovered state into a freshly built engine:
// the reached view, the sent-vote ledgers, and the prepared instances
// (rebuilt from their proofs so preparedProofs can re-exhibit them).
func (e *Engine) restoreDurable(d *DurableState) {
	if d == nil || d.Era != e.cfg.Era {
		return
	}
	e.view = d.View
	if env, err := e.decode(d.NewView); err == nil && env.MsgKind == consensus.KindNewView {
		e.newViewEnv = env
	}
	for k, v := range d.SentPrePrepares {
		e.sentPrePrepares[k] = v
	}
	for k, v := range d.SentPrepares {
		e.sentPrepares[k] = v
	}
	for k, v := range d.SentCommits {
		e.sentCommits[k] = v
	}
	for seq, slot := range d.Prepared {
		if seq < e.execNext {
			continue // already executed and persisted in the block log
		}
		e.reinstallPrepared(seq, slot)
	}
}

// reinstallPrepared rebuilds an in-memory instance from a persisted
// prepared record. The proof carries the original envelopes and the
// record the block, so the instance ends up exactly as prepared as it
// was before the crash, whatever the pool holds; the
// commit vote (if owed) is re-sent from Init.
func (e *Engine) reinstallPrepared(seq uint64, slot *preparedSlot) {
	proof := &slot.proof
	if !e.verifyPreparedProof(proof) || slot.block.Hash() != proof.Digest || slot.block.VerifyTxRoot() != nil {
		return // tampered or truncated record: treat as never prepared
	}
	ppEnv, err := e.decode(proof.PrePrepareEnv)
	if err != nil {
		return
	}
	inst := e.newInstance(proof.View)
	inst.digest = proof.Digest
	inst.block = &slot.block
	inst.prePrepare = ppEnv
	for _, raw := range proof.PrepareEnvs {
		penv, err := e.decode(raw)
		if err != nil {
			continue
		}
		inst.prepares[penv.From] = penv
	}
	inst.prepared = true
	e.insts[seq] = inst
}

// resendRecoveredVotes re-broadcasts the commit votes this replica
// owes for prepared instances in its current view. Signing is
// deterministic, so the re-sent vote is byte-identical to anything the
// network may already have seen — a retransmission, not an
// equivocation. Sequences are walked in order for determinism.
func (e *Engine) resendRecoveredVotes(acts []consensus.Action) []consensus.Action {
	seqs := make([]uint64, 0, len(e.insts))
	for s := range e.insts {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		inst := e.insts[seq]
		if !inst.prepared || inst.executed || inst.view != e.view || seq < e.execNext {
			continue
		}
		if inst.commits[e.self] != nil {
			continue
		}
		// The pipelining gate holds across restarts too: a commit leaves
		// only after the parent slot is prepared. The walk is ascending,
		// so a recovered chain re-sends bottom-up; if slot s was never
		// prepared here, commits for s+1.. stay withheld exactly as they
		// were before the crash.
		if !e.parentPrepared(seq) {
			continue
		}
		if !e.commitPromised(inst, seq) {
			continue
		}
		acts = e.sendOwnCommit(inst, seq, acts)
	}
	return acts
}

// pruneSentVotes drops sent-vote entries at or below the stable
// checkpoint; those sequences are final and can never be voted again.
func (e *Engine) pruneSentVotes(seq uint64) {
	for _, m := range []map[voteKey]gcrypto.Hash{e.sentPrePrepares, e.sentPrepares, e.sentCommits} {
		for k := range m {
			if k.Seq <= seq {
				delete(m, k)
			}
		}
	}
}
