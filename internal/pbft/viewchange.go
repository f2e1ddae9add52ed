package pbft

import (
	"sort"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/store"
)

// startViewChange abandons the current view and broadcasts a
// view-change message for target.
func (e *Engine) startViewChange(now consensus.Time, target uint64) []consensus.Action {
	if target <= e.view {
		return nil
	}
	e.inViewChange = true
	e.vcTarget = target

	var acts []consensus.Action
	// Progress and slot timers are meaningless during a view change;
	// the view-change completion timer takes over the liveness watch.
	if e.progressTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.progressTID})
		delete(e.timers, e.progressTID)
		e.progressTID = 0
	}
	acts = e.stopAllSlotTimers(acts)
	acts = e.endHold(acts)
	// Arm the view-change completion timer (escalate if it stalls).
	if e.vcTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.vcTID})
		delete(e.timers, e.vcTID)
	}
	e.vcTID = e.cfg.Timers.Next()
	e.timers[e.vcTID] = timerViewChange
	acts = append(acts, consensus.StartTimer{ID: e.vcTID, Delay: e.vcRetryDelay})

	e.recordPosition(store.WALViewChange, target)
	vc := &ViewChange{
		Era:        e.cfg.Era,
		NewView:    target,
		LastStable: e.lowWater,
		Prepared:   e.preparedProofs(),
	}
	env := consensus.Seal(e.cfg.Key, vc)
	acts = append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: env})
	e.noteViewChange(env.From, vc, env)
	// A lone replica (committee of 1) can complete instantly.
	acts = e.maybeFinishViewChange(now, acts)
	return acts
}

// preparedProofs gathers prepared-but-unexecuted proposals above the
// stable checkpoint.
func (e *Engine) preparedProofs() []PreparedProof {
	var out []PreparedProof
	for seq, inst := range e.insts {
		if seq <= e.lowWater || !inst.prepared || inst.executed || inst.prePrepare == nil {
			continue
		}
		if proof := e.proofForInstance(seq, inst); proof != nil {
			out = append(out, *proof)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// proofForInstance assembles the prepared proof for one instance: its
// pre-prepare plus quorum-1 matching prepares from non-primary
// replicas. It is used both for view-change messages and for the WAL's
// prepared records.
func (e *Engine) proofForInstance(seq uint64, inst *instance) *PreparedProof {
	if inst.prePrepare == nil {
		return nil
	}
	proof := &PreparedProof{
		Seq:           seq,
		View:          inst.view,
		Digest:        inst.digest,
		PrePrepareEnv: consensus.EncodeEnvelope(inst.prePrepare),
	}
	count := 0
	for _, penv := range inst.prepares {
		if penv.From == e.com.Primary(inst.view) {
			continue
		}
		var p Prepare
		if consensus.Open(penv, consensus.KindPrepare, &p) != nil || p.Digest != inst.digest {
			continue
		}
		proof.PrepareEnvs = append(proof.PrepareEnvs, consensus.EncodeEnvelope(penv))
		count++
		if count >= e.com.Quorum()-1 {
			break
		}
	}
	return proof
}

// verifyPreparedProof checks a prepared proof carried in a view-change.
func (e *Engine) verifyPreparedProof(p *PreparedProof) bool {
	ppEnv, err := consensus.DecodeEnvelope(p.PrePrepareEnv)
	if err != nil {
		return false
	}
	var pp PrePrepare
	if consensus.Open(ppEnv, consensus.KindPrePrepare, &pp) != nil {
		return false
	}
	if pp.Era != e.cfg.Era || pp.Seq != p.Seq || pp.View != p.View || pp.Digest != p.Digest {
		return false
	}
	if ppEnv.From != e.com.Primary(pp.View) {
		return false
	}
	if pp.Digest != pp.Block.Hash() {
		return false
	}
	seen := map[gcrypto.Address]bool{ppEnv.From: true}
	valid := 0
	for _, raw := range p.PrepareEnvs {
		env, err := consensus.DecodeEnvelope(raw)
		if err != nil {
			continue
		}
		var prep Prepare
		if consensus.Open(env, consensus.KindPrepare, &prep) != nil {
			continue
		}
		if prep.Era != e.cfg.Era || prep.Seq != p.Seq || prep.View != p.View || prep.Digest != p.Digest {
			continue
		}
		if !e.com.IsMember(env.From) || seen[env.From] {
			continue
		}
		seen[env.From] = true
		valid++
	}
	return valid >= e.com.Quorum()-1
}

func (e *Engine) onViewChange(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var vc ViewChange
	if err := consensus.Open(env, consensus.KindViewChange, &vc); err != nil {
		return nil
	}
	if vc.Era != e.cfg.Era || !e.com.IsMember(env.From) {
		return nil
	}
	if vc.NewView <= e.view {
		// A replica petitioning for a view we already left is behind —
		// it crashed or was cut off while the committee moved on, and
		// nobody will second a dead view. Hand it the NewView
		// certificate of our current view so it can verify the jump
		// and rejoin, instead of escalating through stale views alone.
		if e.newViewEnv != nil {
			return []consensus.Action{consensus.Send{To: env.From, Env: e.newViewEnv}}
		}
		return nil
	}
	e.noteViewChange(env.From, &vc, env)

	var acts []consensus.Action
	// Liveness rule: if f+1 distinct replicas want views above ours,
	// join the smallest such view even if our timer hasn't fired.
	if !e.inViewChange || e.vcTarget < vc.NewView {
		if v, ok := e.joinableView(); ok && (!e.inViewChange || v > e.vcTarget) {
			acts = append(acts, e.startViewChange(now, v)...)
		}
	}
	acts = e.maybeFinishViewChange(now, acts)
	return acts
}

func (e *Engine) noteViewChange(from gcrypto.Address, vc *ViewChange, env *consensus.Envelope) {
	m := e.viewChanges[vc.NewView]
	if m == nil {
		m = make(map[gcrypto.Address]*vcRecord)
		e.viewChanges[vc.NewView] = m
	}
	if _, dup := m[from]; !dup {
		m[from] = &vcRecord{msg: vc, env: env}
	}
}

// joinableView returns the smallest view v > current such that f+1
// distinct replicas have asked for a view >= v.
func (e *Engine) joinableView() (uint64, bool) {
	votersAbove := make(map[gcrypto.Address]uint64) // replica -> max view requested
	for v, m := range e.viewChanges {
		if v <= e.view {
			continue
		}
		for from := range m {
			if votersAbove[from] < v {
				votersAbove[from] = v
			}
		}
	}
	if len(votersAbove) < e.com.WeakQuorum() {
		return 0, false
	}
	views := make([]uint64, 0, len(votersAbove))
	for _, v := range votersAbove {
		views = append(views, v)
	}
	sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
	// The f+1-th largest requested view is supported by f+1 replicas.
	v := views[len(views)-e.com.WeakQuorum()]
	if v <= e.view {
		return 0, false
	}
	return v, true
}

// maybeFinishViewChange lets the new primary assemble and broadcast a
// NewView once it holds 2f+1 view-change messages for the target.
func (e *Engine) maybeFinishViewChange(now consensus.Time, acts []consensus.Action) []consensus.Action {
	if !e.inViewChange {
		return acts
	}
	target := e.vcTarget
	if e.com.Primary(target) != e.self {
		return acts
	}
	m := e.viewChanges[target]
	if len(m) < e.com.Quorum() {
		return acts
	}
	// Deterministic pick of 2f+1 view-changes (sorted by address).
	froms := make([]gcrypto.Address, 0, len(m))
	for from := range m {
		froms = append(froms, from)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i].Less(froms[j]) })
	froms = froms[:e.com.Quorum()]

	nv := &NewView{Era: e.cfg.Era, View: target}
	chosen := make([]*vcRecord, 0, len(froms))
	for _, from := range froms {
		rec := m[from]
		chosen = append(chosen, rec)
		nv.ViewChangeEnvs = append(nv.ViewChangeEnvs, consensus.EncodeEnvelope(rec.env))
	}
	// Re-issue pre-prepares for the prepared values in the chosen set.
	for _, pp := range e.reissuedPrePrepares(target, chosen) {
		nv.PrePrepares = append(nv.PrePrepares, consensus.EncodeEnvelope(pp))
	}
	env := consensus.Seal(e.cfg.Key, nv)
	e.newViewEnv = env
	acts = append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: env})
	return e.enterNewView(now, nv, acts)
}

// reissuedPrePrepares computes the O set: for each prepared seq above
// the max stable checkpoint in the chosen view-changes, a fresh
// pre-prepare in the new view carrying the prepared block (picking the
// highest-view proof per seq).
func (e *Engine) reissuedPrePrepares(target uint64, chosen []*vcRecord) []*consensus.Envelope {
	maxStable := uint64(0)
	for _, rec := range chosen {
		if rec.msg.LastStable > maxStable {
			maxStable = rec.msg.LastStable
		}
	}
	best := make(map[uint64]*PreparedProof)
	for _, rec := range chosen {
		for i := range rec.msg.Prepared {
			p := &rec.msg.Prepared[i]
			if p.Seq <= maxStable {
				continue
			}
			if !e.verifyPreparedProof(p) {
				continue
			}
			if b, ok := best[p.Seq]; !ok || p.View > b.View {
				best[p.Seq] = p
			}
		}
	}
	seqs := make([]uint64, 0, len(best))
	for s := range best {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	// Walk the prepared proofs as a chain from the stable checkpoint:
	// each re-issued block must directly extend the previous one (seq
	// and PrevHash). Truncate at the first gap or hash mismatch — the
	// commit-after-parent-prepared rule guarantees anything that might
	// have committed has its full ancestor chain prepared in every
	// view-change quorum, so a proof past a gap belongs to a speculative
	// suffix that cannot have committed and is safe to abandon.
	var out []*consensus.Envelope
	prevSeq := uint64(0)
	var prevDigest gcrypto.Hash
	first := true
	for _, s := range seqs {
		p := best[s]
		srcEnv, err := consensus.DecodeEnvelope(p.PrePrepareEnv)
		if err != nil {
			continue
		}
		var src PrePrepare
		if consensus.Open(srcEnv, consensus.KindPrePrepare, &src) != nil {
			continue
		}
		if !first {
			if s != prevSeq+1 || src.Block.Header.PrevHash != prevDigest {
				break
			}
		}
		first = false
		prevSeq = s
		prevDigest = p.Digest
		// A re-issued pre-prepare is still a proposal signed by this
		// replica at (target, s): it goes through the same durable
		// no-equivocation gate as a fresh one. A refusal truncates the
		// chain here — children of an unissuable parent are unusable.
		if !e.recordVote(store.WALPrePrepare, e.sentPrePrepares, target, s, p.Digest, nil) {
			break
		}
		block := src.Block
		// The block header keeps its original view (it is the same
		// value); the new pre-prepare carries the new view.
		pp := &PrePrepare{
			SlotHeader: consensus.SlotHeader{Era: e.cfg.Era, View: target, Seq: s, Digest: p.Digest},
			Block:      block,
		}
		out = append(out, consensus.Seal(e.cfg.Key, pp))
	}
	return out
}

func (e *Engine) onNewView(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var nv NewView
	if err := consensus.Open(env, consensus.KindNewView, &nv); err != nil {
		return nil
	}
	if nv.Era != e.cfg.Era || nv.View <= e.view {
		return nil
	}
	if env.From != e.com.Primary(nv.View) {
		return nil
	}
	// Verify the 2f+1 view-change envelopes.
	seen := make(map[gcrypto.Address]bool)
	valid := 0
	for _, raw := range nv.ViewChangeEnvs {
		vcEnv, err := consensus.DecodeEnvelope(raw)
		if err != nil {
			continue
		}
		var vc ViewChange
		if consensus.Open(vcEnv, consensus.KindViewChange, &vc) != nil {
			continue
		}
		if vc.Era != e.cfg.Era || vc.NewView != nv.View {
			continue
		}
		if !e.com.IsMember(vcEnv.From) || seen[vcEnv.From] {
			continue
		}
		seen[vcEnv.From] = true
		valid++
	}
	if valid < e.com.Quorum() {
		return nil
	}
	e.newViewEnv = env
	return e.enterNewView(now, &nv, nil)
}

// enterNewView installs the new view on this replica and processes the
// re-issued pre-prepares.
func (e *Engine) enterNewView(now consensus.Time, nv *NewView, acts []consensus.Action) []consensus.Action {
	e.recordPosition(store.WALNewView, nv.View)
	e.view = nv.View
	e.inViewChange = false
	e.vcTarget = 0
	e.vcRetryDelay = e.cfg.ViewChangeTimeout
	e.viewChangesFin++
	if e.vcTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.vcTID})
		delete(e.timers, e.vcTID)
		e.vcTID = 0
	}
	// Slot deadlines belong to the old view; surviving proposals get
	// fresh ones as their re-issues are accepted below. So does a held
	// head block: what the new view proposes first is never held.
	acts = e.stopAllSlotTimers(acts)
	acts = e.endHold(acts)
	// Drop un-executed instances from older views; prepared values
	// come back through the re-issued pre-prepares.
	for s, inst := range e.insts {
		if s >= e.execNext && !inst.executed && inst.view < nv.View {
			delete(e.insts, s)
		}
	}
	// Clear stale view-change state at or below the new view.
	for v := range e.viewChanges {
		if v <= nv.View {
			delete(e.viewChanges, v)
		}
	}
	// Process the new primary's re-issued pre-prepares.
	for _, raw := range nv.PrePrepares {
		ppEnv, err := consensus.DecodeEnvelope(raw)
		if err != nil {
			continue
		}
		if ppEnv.From == e.self {
			// Our own re-issue (we are the new primary): install and
			// wait for prepares.
			var pp PrePrepare
			if consensus.Open(ppEnv, consensus.KindPrePrepare, &pp) == nil && pp.Seq >= e.execNext {
				acts = e.acceptPrePrepare(now, &pp, ppEnv, acts)
			}
			continue
		}
		acts = append(acts, e.onPrePrepare(now, ppEnv)...)
	}
	acts = e.relayHeld(acts)
	acts = e.maybePropose(now, acts)
	acts = e.drainBuffered(now, acts)
	acts = e.ensureProgressTimer(acts)
	return acts
}
