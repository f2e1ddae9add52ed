package pbft_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// driveCommit pushes one block through the engine at the given seq by
// synthesizing the peer traffic (the rig engine is a backup).
func (r *unitRig) driveCommit(t *testing.T, seq uint64, prim, selfPos int) *types.Block {
	t.Helper()
	// Build the block on top of the rig app's chain head.
	head := r.app.Chain().Head()
	tx := clientTx(int(seq)*7, seq)
	b := types.NewBlock(types.BlockHeader{
		Height: seq, Era: 0, View: 0, Seq: seq,
		PrevHash:  head.Hash(),
		Proposer:  r.com.Primary(0),
		Timestamp: epoch.Add(1),
	}, []types.Transaction{*tx})
	r.pool(*tx)
	r.eng.OnEnvelope(0, r.seal(prim, pbft.NewPrePrepare(0, 0, seq, b)))
	for i := 0; i < 4; i++ {
		if i == selfPos || i == prim {
			continue
		}
		r.eng.OnEnvelope(0, r.seal(i, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: seq, Digest: b.Hash()}}))
	}
	var committedBlock *types.Block
	for i := 0; i < 4; i++ {
		if i == selfPos {
			continue
		}
		acts := r.eng.OnEnvelope(0, r.seal(i, &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: seq, Digest: b.Hash()}}))
		for _, cb := range commitsOf(acts) {
			committedBlock = cb
			// Mirror the runtime: apply to the chain so the next
			// driveCommit builds on the new head.
			if err := r.app.Commit(cb); err != nil {
				t.Fatalf("apply seq %d: %v", seq, err)
			}
			r.eng.OnCommitApplied(0)
		}
	}
	if committedBlock == nil {
		t.Fatalf("seq %d did not commit", seq)
	}
	return committedBlock
}

// TestCheckpointStabilizationGC: executing the K-th block makes it the
// stable point at once, with no message from any peer, garbage-collects
// the log below it, and the certificate just attached to the block is
// what the replica's next view change proves the stable point with.
func TestCheckpointStabilizationGC(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	// K = 2: the second block is a stable point.
	r := newUnitRigWithK(t, selfPos, 2)
	r.eng.Init(0)

	r.driveCommit(t, 1, prim, selfPos)
	if r.eng.LowWater() != 0 {
		t.Fatalf("low water %d after one block, want 0", r.eng.LowWater())
	}
	b2 := r.driveCommit(t, 2, prim, selfPos)
	if r.eng.LowWater() != 2 {
		t.Fatalf("low water %d after executing block 2, want 2", r.eng.LowWater())
	}
	if logged, _, seen := r.eng.StoredVotes(consensus.KindCommit, 1); logged != 0 || seen != 0 {
		t.Fatalf("slot 1 below the stable point still holds %d logged and %d seen commits", logged, seen)
	}
	r.provesStablePoint(r.eng, 2, b2)
}

// TestCheckpointMismatchedDigestIgnored: a view change proves its
// LastStable only with a certificate whose votes sign the digest it
// names at that height. A certificate over another digest proves
// nothing: the new primary keeps its stable point and re-issues the
// slot it prepared below the claim. The same claim with a certificate
// that verifies is adopted, and the slot below it is not re-issued.
func TestCheckpointMismatchedDigestIgnored(t *testing.T) {
	for _, valid := range []bool{false, true} {
		r, v1prim, peers := newViewOnePrimary(t)
		tx := clientTx(0, 1)
		b, pp := r.proposal(*tx)
		r.eng.OnEnvelope(0, pp)
		for _, i := range peers[1:] {
			r.eng.OnEnvelope(0, r.prepareFrom(i, b.Hash()))
		}
		if prepared, _ := r.eng.PreparedProof(1); !prepared {
			t.Fatal("setup: slot 1 did not prepare")
		}

		stable := gcrypto.HashBytes([]byte("block 2"))
		cert := r.certify(2, stable, peers...)
		if !valid {
			cert.BlockHash = gcrypto.HashBytes([]byte("another block 2"))
		}
		acts := r.enterViewOne(v1prim, peers, &pbft.ViewChange{Era: 0, NewView: 1, LastStable: 2, StableCert: cert})
		reissued := containsSeq(preprepareSeqs(t, acts), 1)
		switch {
		case !valid && (r.eng.LowWater() != 0 || !reissued):
			t.Fatalf("a certificate over another digest moved the stable point to %d (slot 1 re-issued: %v)", r.eng.LowWater(), reissued)
		case valid && (r.eng.LowWater() != 2 || reissued):
			t.Fatalf("a proven stable point left the low water at %d (slot 1 re-issued: %v)", r.eng.LowWater(), reissued)
		}
	}
}

// TestCheckpointPruneNeverReproposes: a stable point can land above a
// replica's execution only through a NewView whose view changes prove
// it. The slots up to it are decided elsewhere, so the replica prunes
// their instances and sent-vote guards; as the new primary it must not
// rebuild a pruned slot from today's pool and sign a proposal that
// contradicts the decided block. Regression test for an equivocation
// found by the gossip chaos schedule, when a quorum of checkpoint
// messages lifted the stable point.
func TestCheckpointPruneNeverReproposes(t *testing.T) {
	r, v1prim, peers := newViewOnePrimary(t)
	// The view-0 proposal for slot 1 reached this replica; the rest of
	// the committee committed slots 1 and 2 without it.
	tx1 := clientTx(0, 1)
	_, pp := r.proposal(*tx1)
	r.eng.OnEnvelope(0, pp)

	cert := r.certify(2, gcrypto.HashBytes([]byte("block 2")), peers...)
	acts := r.enterViewOne(v1prim, peers, &pbft.ViewChange{Era: 0, NewView: 1, LastStable: 2, StableCert: cert})
	if r.eng.View() != 1 || !r.eng.IsPrimary() {
		t.Fatalf("setup: view %d, primary %v", r.eng.View(), r.eng.IsPrimary())
	}
	if r.eng.LowWater() != 2 {
		t.Fatalf("low water %d after a NewView proving 2, want 2", r.eng.LowWater())
	}

	// New pool contents arrive. The pruned slots are decided; proposing
	// one would contradict the block the certificate proves.
	tx2 := clientTx(1, 2)
	if err := r.app.SubmitTx(tx2); err != nil {
		t.Fatal(err)
	}
	acts = append(acts, r.eng.OnRequest(0, tx2)...)
	acts = append(acts, r.eng.OnCommitApplied(0)...)
	for _, seq := range preprepareSeqs(t, acts) {
		if seq <= 2 {
			t.Fatalf("new primary proposed slot %d, at or below the proven stable point", seq)
		}
	}
}

// TestWALKeepsVotesOfUnappliedBlocks: compaction at a stable point
// never drops the records of a block the chain has not applied yet. With
// K = 1 every execution is a stable point; the records of slot 1 survive
// the handler that executes it, and go once the block is applied.
func TestWALKeepsVotesOfUnappliedBlocks(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	wal := newDurableWAL(t)
	r := newPipeRig(t, selfPos, 1, 1, wal, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)
	blocks, envs := r.chainProposals(2)

	logged := func(seq uint64) bool {
		for _, rec := range wal.Records() {
			if rec.Seq == seq && rec.Kind == store.WALPrepared {
				return true
			}
		}
		return false
	}
	for s := uint64(1); s <= 2; s++ {
		d := blocks[s-1].Hash()
		acts := r.eng.OnEnvelope(0, envs[s-1])
		acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p1, s, d))...)
		acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, s, d))...)
		acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, s, d))...)
		acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, s, d))...)
		if r.eng.LowWater() != s || !logged(s) {
			t.Fatalf("slot %d executed: low water %d, prepared record kept %v; want %d and true", s, r.eng.LowWater(), logged(s), s)
		}
		if len(r.applyCommits(t, acts)) != 1 {
			t.Fatalf("slot %d did not execute", s)
		}
	}
	if logged(1) {
		t.Fatal("slot 1's records outlived the stable point after its block was applied")
	}
}

// TestRestoredReplicaProvesItsStablePoint: a replica restarted from its
// chain starts at the head, and its view change proves that stable
// point with the head block's certificate.
func TestRestoredReplicaProvesItsStablePoint(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)
	head := r.driveCommit(t, 1, prim, selfPos)

	restored, err := pbft.New(pbft.Config{
		Committee: r.com, Key: r.keys[selfPos], App: r.app,
		Node: pbft.NewNodeState(consensus.NewTimerAllocator(), time.Second), StartHeight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	restored.Init(0)
	r.provesStablePoint(restored, 1, head)
}

// TestBackupRefusesSlotsBelowProvenStablePoint: a backup that adopted a
// proven stable point from a NewView does not prepare a proposal at or
// below it, even one its new primary signed: those slots are decided.
func TestBackupRefusesSlotsBelowProvenStablePoint(t *testing.T) {
	probe := newUnitRig(t, 0)
	v1prim := probe.com.IndexOf(probe.com.Primary(1))
	var others []int
	for i := 0; i < 4; i++ {
		if i != v1prim && i != probe.primaryPos() {
			others = append(others, i)
		}
	}
	self := others[0]
	r := newUnitRigWithK(t, self, 2)
	r.eng.Init(0)

	nv := &pbft.NewView{Era: 0, View: 1}
	cert := r.certify(2, gcrypto.HashBytes([]byte("block 2")), v1prim, others[0], others[1])
	for _, i := range []int{v1prim, others[0], others[1]} {
		vc := &pbft.ViewChange{Era: 0, NewView: 1}
		if i == others[1] {
			vc.LastStable, vc.StableCert = 2, cert
		}
		nv.ViewChangeEnvs = append(nv.ViewChangeEnvs, consensus.EncodeEnvelope(r.seal(i, vc)))
	}
	r.eng.OnEnvelope(0, r.seal(v1prim, nv))
	if r.eng.View() != 1 || r.eng.LowWater() != 2 {
		t.Fatalf("after the NewView: view %d, low water %d, want 1 and 2", r.eng.View(), r.eng.LowWater())
	}

	chain, _ := ledger.NewChain(r.genesis)
	tx := clientTx(0, 1)
	b := types.NewBlock(types.BlockHeader{
		Height: 1, Era: 0, View: 1, Seq: 1,
		PrevHash: chain.Head().Hash(), Proposer: r.com.Primary(1), Timestamp: epoch.Add(time.Second),
	}, []types.Transaction{*tx})
	r.pool(*tx)
	if acts := r.eng.OnEnvelope(0, r.seal(v1prim, pbft.NewPrePrepare(0, 1, 1, b))); hasKind(acts, consensus.KindPrepare) {
		t.Fatal("the backup prepared a slot below the proven stable point")
	}
}

// provesStablePoint has eng, the rig's replica, join a view change and
// checks that its view change proves stable point seq with the
// certificate of block b.
func (r *unitRig) provesStablePoint(eng *pbft.Engine, seq uint64, b *types.Block) {
	r.t.Helper()
	var vc *pbft.ViewChange
	for i, asked := 0, 0; i < 4 && asked < 2; i++ {
		if i == r.self {
			continue
		}
		asked++
		for _, a := range eng.OnEnvelope(0, r.seal(i, &pbft.ViewChange{Era: 0, NewView: 1})) {
			if bc, ok := a.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindViewChange {
				vc = new(pbft.ViewChange)
				if err := consensus.Open(bc.Env, consensus.KindViewChange, vc); err != nil {
					r.t.Fatal(err)
				}
			}
		}
	}
	if vc == nil {
		r.t.Fatal("the replica did not join the view change")
	}
	if vc.LastStable != seq || vc.StableCert == nil {
		r.t.Fatalf("view change claims stable point %d with a proof: %v, want %d with block %d's certificate", vc.LastStable, vc.StableCert != nil, seq, seq)
	}
	if err := vc.StableCert.Verify(b.Hash(), seq, r.com.Keys(), r.com.Quorum()); err != nil {
		r.t.Fatalf("the stable point's proof does not verify: %v", err)
	}
}

// TestRetiredKindNeverReachesAnEngine: the checkpoint's kind number is
// retired. Its bytes are refused by the envelope decoder, and an
// envelope carrying it in memory changes nothing in an engine.
func TestRetiredKindNeverReachesAnEngine(t *testing.T) {
	r := newUnitRig(t, 1)
	r.eng.Init(0)
	env := r.seal(2, &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: 1}})
	env.MsgKind = consensus.KindCommit + 1
	if _, err := consensus.DecodeEnvelope(consensus.EncodeEnvelope(env)); !errors.Is(err, consensus.ErrEnvelopeRetired) {
		t.Fatalf("decoding the retired kind: %v, want ErrEnvelopeRetired", err)
	}
	if _, ok := consensus.PeekEra(env); ok {
		t.Fatal("the retired kind reads as an era's traffic")
	}
	if acts := r.eng.OnEnvelope(0, env); len(acts) != 0 {
		t.Fatalf("an engine acted on the retired kind: %v", acts)
	}
	if c := r.eng.Tally(); c != (pbft.Tally{}) {
		t.Fatalf("an engine counted the retired kind: %+v", c)
	}
}

// newViewOnePrimary builds a rig for the primary of view 1, with K = 2,
// and lists the other members, view 0's primary first.
func newViewOnePrimary(t *testing.T) (r *unitRig, v1prim int, peers []int) {
	t.Helper()
	probe := newUnitRig(t, 0)
	v1prim = probe.com.IndexOf(probe.com.Primary(1))
	r = newUnitRigWithK(t, v1prim, 2)
	r.eng.Init(0)
	peers = append(peers, r.primaryPos())
	for i := 0; i < 4; i++ {
		if i != v1prim && i != r.primaryPos() {
			peers = append(peers, i)
		}
	}
	return r, v1prim, peers
}

// enterViewOne moves the rig, view 1's primary, into view 1: the first
// peer asks with claim, the second with no stable point, which with the
// rig's own view change makes 2f+1. It returns everything the rig did.
func (r *unitRig) enterViewOne(v1prim int, peers []int, claim *pbft.ViewChange) []consensus.Action {
	r.t.Helper()
	var acts []consensus.Action
	acts = append(acts, r.eng.OnEnvelope(0, r.seal(peers[0], claim))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.seal(peers[1], &pbft.ViewChange{Era: 0, NewView: 1}))...)
	if r.eng.View() != 1 {
		r.t.Fatalf("rig did not enter view 1 (view %d)", r.eng.View())
	}
	return acts
}

// certify builds the commit certificate of digest at seq in era 0,
// view 0, with the votes of the given members.
func (r *unitRig) certify(seq uint64, digest gcrypto.Hash, signers ...int) *types.Certificate {
	c := &types.Certificate{BlockHash: digest}
	for _, i := range signers {
		addr := r.keys[i].Address()
		c.Votes = append(c.Votes, types.Vote{Endorser: addr, Signature: r.keys[i].Sign(types.CommitVoteBytes(addr, 0, 0, seq, digest))})
	}
	return c
}

// preprepareSeqs lists the slots of the pre-prepares acts broadcast,
// on their own or re-issued inside a NewView.
func preprepareSeqs(t *testing.T, acts []consensus.Action) []uint64 {
	t.Helper()
	var envs []*consensus.Envelope
	for _, a := range acts {
		b, ok := a.(consensus.Broadcast)
		if !ok {
			continue
		}
		switch b.Env.MsgKind {
		case consensus.KindPrePrepare:
			envs = append(envs, b.Env)
		case consensus.KindNewView:
			var nv pbft.NewView
			if err := consensus.Open(b.Env, consensus.KindNewView, &nv); err != nil {
				t.Fatal(err)
			}
			for _, raw := range nv.PrePrepares {
				env, err := consensus.DecodeEnvelope(raw)
				if err != nil {
					t.Fatal(err)
				}
				envs = append(envs, env)
			}
		}
	}
	var out []uint64
	for _, env := range envs {
		var pp pbft.PrePrepare
		if err := consensus.OpenUnverified(env, consensus.KindPrePrepare, &pp); err != nil {
			t.Fatal(err)
		}
		out = append(out, pp.Seq)
	}
	return out
}

// newUnitRigWithK builds a rig with a custom checkpoint interval.
func newUnitRigWithK(t *testing.T, selfPos int, k uint64) *unitRig {
	t.Helper()
	base := newUnitRig(t, selfPos)
	eng, err := pbft.New(pbft.Config{
		Committee: base.com, Key: base.keys[selfPos], App: base.app,
		StartHeight: 1, CheckpointInterval: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	base.eng = eng
	return base
}

// TestUnprovenStablePointHidesNoPreparedSlot: a view-changer's LastStable
// counts only with its proof. At n = 4 the primary of view 0 proposes
// slot 1; every replica prepares it, and only C collects the commits and
// executes it. The primary is Byzantine: it stops proposing, and its view
// change claims LastStable = 17 with no certificate. Trusting the claim,
// the new primary skips slot 1's prepared proof and proposes a fresh
// block there, which the liar, itself and D — a quorum without C —
// commit against C's block. Ignoring it, the new view re-issues C's block
// and commits it within three timeouts.
func TestUnprovenStablePointHidesNoPreparedSlot(t *testing.T) {
	n := newEngineNet(t, 4)
	liar, b := n.pos(n.com.Primary(0)), n.pos(n.com.Primary(1))
	var c, d int
	for i := range n.engs {
		if i != liar && i != b {
			c, d = d, i
		}
	}
	lies := make(map[*consensus.Envelope]*consensus.Envelope)
	n.tamper = func(from, to int, env *consensus.Envelope) *consensus.Envelope {
		switch env.MsgKind {
		case consensus.KindCommit:
			if h, _ := consensus.PeekSlot(env); h.View == 0 && to != c {
				return nil // view 0's commits reach C alone
			}
		case consensus.KindViewChange:
			if from != liar {
				break
			}
			if lie, ok := lies[env]; ok {
				return lie
			}
			var vc pbft.ViewChange
			if err := consensus.Open(env, consensus.KindViewChange, &vc); err != nil {
				t.Fatal(err)
			}
			lie := consensus.Seal(n.keys[liar], &pbft.ViewChange{Era: vc.Era, NewView: vc.NewView, LastStable: 17})
			lie.Sender = uint64(liar)
			lies[env] = lie
			return lie
		}
		return env
	}

	n.submit(liar, clientTx(0, 1))
	n.run(0)
	for i := range n.engs {
		if prepared, _ := n.engs[i].PreparedProof(1); !prepared && i != c {
			t.Fatalf("setup: replica %d did not prepare slot 1", i)
		}
	}
	if n.height(c) != 1 || n.height(b) != 0 || n.height(d) != 0 {
		t.Fatalf("setup: heights C=%d B=%d D=%d, want 1, 0, 0", n.height(c), n.height(b), n.height(d))
	}
	decided := n.block(c, 1).Hash()

	n.run(3 * n.engs[b].Timeout())
	for _, i := range []int{b, c, d} {
		if n.height(i) < 1 {
			t.Fatalf("replica %d at height %d after three timeouts, want slot 1 committed", i, n.height(i))
		}
		if got := n.block(i, 1).Hash(); got != decided {
			t.Fatalf("replica %d committed %x at slot 1, C committed %x", i, got[:4], decided[:4])
		}
	}
}

// TestExecutedSlotSurvivesViewChange: a view change carries every
// prepared slot above its stable point, executed or not (Castro–Liskov).
// At n = 4 the primary A of view 0 proposes slot 1; C and D prepare it,
// B never sees it, and only the executors collect the commits: C alone,
// or C and D. Slot 1 is not a stable point. A is Byzantine: its view
// change carries no prepared proof, and D's view change reaches B late,
// so B's NewView rests on A, B and C. Were C's executed slot left out,
// B would hold no proof for slot 1 and commit a fresh block there with A
// and D. Carried, it is re-issued; a replica that executed it votes for
// the matching re-issue, so two executors do not stall the new view.
func TestExecutedSlotSurvivesViewChange(t *testing.T) {
	for _, executors := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d executed", executors), func(t *testing.T) {
			n := newEngineNet(t, 4)
			a, b := n.pos(n.com.Primary(0)), n.pos(n.com.Primary(1))
			var c, d int
			for i := range n.engs {
				if i != a && i != b {
					c, d = d, i
				}
			}
			executed := map[int]bool{c: true, d: executors == 2}
			stripped := make(map[*consensus.Envelope]*consensus.Envelope)
			n.tamper = func(from, to int, env *consensus.Envelope) *consensus.Envelope {
				switch env.MsgKind {
				case consensus.KindPrePrepare, consensus.KindPrepare, consensus.KindCommit:
					h, _ := consensus.PeekSlot(env)
					if h.View == 0 && (to == b || env.MsgKind == consensus.KindCommit && !executed[to]) {
						return nil
					}
				case consensus.KindViewChange:
					if from == d && to == b {
						return nil
					}
					if from != a {
						break
					}
					if s, ok := stripped[env]; ok {
						return s
					}
					var vc pbft.ViewChange
					if err := consensus.Open(env, consensus.KindViewChange, &vc); err != nil {
						t.Fatal(err)
					}
					vc.Prepared = nil
					s := consensus.Seal(n.keys[a], &vc)
					s.Sender = uint64(a)
					stripped[env] = s
					return s
				}
				return env
			}

			n.submit(a, clientTx(0, 1))
			n.run(0)
			for i := range n.engs {
				if executed[i] != (n.height(i) == 1) || n.height(i) > 1 {
					t.Fatalf("setup: replica %d at height %d, executed slot 1: %v", i, n.height(i), executed[i])
				}
			}
			decided := n.block(c, 1).Hash()

			n.run(3 * n.engs[b].Timeout())
			for i := range n.engs {
				if n.height(i) < 1 {
					t.Fatalf("replica %d at height %d after three timeouts, want slot 1 committed", i, n.height(i))
				}
				if got := n.block(i, 1).Hash(); got != decided {
					t.Fatalf("FORK: replica %d committed %x at slot 1, C committed %x", i, got[:4], decided[:4])
				}
			}
		})
	}
}

// TestExecutedSlotKeepsItsProof: a vote of a later view for a slot this
// replica executed changes nothing there, and in particular does not
// replace the executed instance, so the replica's next view change still
// carries the slot's prepared proof.
func TestExecutedSlotKeepsItsProof(t *testing.T) {
	probe := newUnitRig(t, 0)
	prim, v1prim := probe.primaryPos(), probe.com.IndexOf(probe.com.Primary(1))
	var others []int
	for i := 0; i < 4; i++ {
		if i != prim && i != v1prim {
			others = append(others, i)
		}
	}
	self := others[0]
	r := newUnitRig(t, self)
	r.eng.Init(0)
	b := r.driveCommit(t, 1, prim, self)

	nv := &pbft.NewView{Era: 0, View: 1}
	for _, i := range []int{v1prim, prim, others[1]} {
		nv.ViewChangeEnvs = append(nv.ViewChangeEnvs, consensus.EncodeEnvelope(r.seal(i, &pbft.ViewChange{Era: 0, NewView: 1})))
	}
	r.eng.OnEnvelope(0, r.seal(v1prim, nv))
	if r.eng.View() != 1 {
		t.Fatalf("setup: view %d after the NewView, want 1", r.eng.View())
	}
	r.eng.OnEnvelope(0, r.seal(others[1], &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 1, Seq: 1, Digest: b.Hash()}}))

	var vc *pbft.ViewChange
	for _, i := range []int{prim, others[1]} {
		for _, a := range r.eng.OnEnvelope(0, r.seal(i, &pbft.ViewChange{Era: 0, NewView: 2})) {
			if bc, ok := a.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindViewChange {
				vc = new(pbft.ViewChange)
				if err := consensus.Open(bc.Env, consensus.KindViewChange, vc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if vc == nil {
		t.Fatal("setup: the replica did not join the view change")
	}
	if len(vc.Prepared) != 1 || vc.Prepared[0].Seq != 1 || vc.Prepared[0].Digest != b.Hash() {
		t.Fatalf("view change carries %d prepared proofs, want the one of executed slot 1", len(vc.Prepared))
	}
}

// engineNet wires whole engines to one another with no simulator and no
// sync: every envelope is delivered in the order it was sent, at the
// instant it was sent, and time moves only to the next armed timer.
type engineNet struct {
	t      *testing.T
	com    *consensus.Committee
	keys   []*gcrypto.KeyPair
	apps   []*runtime.App
	engs   []*pbft.Engine
	now    consensus.Time
	queue  []netMsg
	timers []map[consensus.TimerID]consensus.Time
	// tamper sees each envelope before delivery and returns what is
	// delivered instead: env itself, a replacement, or nil to drop it.
	tamper func(from, to int, env *consensus.Envelope) *consensus.Envelope
}

type netMsg struct {
	from, to int
	env      *consensus.Envelope
}

// newEngineNet builds n engines over the rig's committee, each on a
// chain and pool of its own, with a fixed one-second timeout.
func newEngineNet(t *testing.T, size int) *engineNet {
	t.Helper()
	base := newUnitRigN(t, size, 0, nil)
	n := &engineNet{t: t, com: base.com, keys: base.keys}
	for i := 0; i < size; i++ {
		chain, err := ledger.NewChain(base.genesis)
		if err != nil {
			t.Fatal(err)
		}
		app := runtime.NewApp(chain, runtime.NewMempool(0, nil), n.keys[i].Address(), epoch, 8)
		eng, err := pbft.New(pbft.Config{
			Committee: n.com, Key: n.keys[i], App: app,
			Node: pbft.NewNodeState(consensus.NewTimerAllocator(), time.Second), StartHeight: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.apps = append(n.apps, app)
		n.engs = append(n.engs, eng)
		n.timers = append(n.timers, make(map[consensus.TimerID]consensus.Time))
	}
	for i := range n.engs {
		n.apply(i, n.engs[i].Init(0))
	}
	return n
}

func (n *engineNet) pos(addr gcrypto.Address) int { return n.com.IndexOf(addr) }

func (n *engineNet) height(i int) uint64 { return n.apps[i].Chain().Height() }

func (n *engineNet) block(i int, h uint64) *types.Block {
	b, err := n.apps[i].Chain().BlockAt(h)
	if err != nil {
		n.t.Fatal(err)
	}
	return b
}

// submit pools tx at replica i and hands it to its engine.
func (n *engineNet) submit(i int, tx *types.Transaction) {
	if err := n.apps[i].SubmitTx(tx); err != nil {
		n.t.Fatal(err)
	}
	n.apply(i, n.engs[i].OnRequest(n.now, tx))
}

// apply carries out replica i's actions as the runtime would: a
// committed block is applied to its chain, and the engine hears so.
func (n *engineNet) apply(i int, acts []consensus.Action) {
	committed := false
	for _, a := range acts {
		switch a := a.(type) {
		case consensus.Send:
			n.queue = append(n.queue, netMsg{i, n.pos(a.To), a.Env})
		case consensus.Broadcast:
			for _, to := range a.To {
				n.queue = append(n.queue, netMsg{i, n.pos(to), a.Env})
			}
		case consensus.CommitBlock:
			if err := n.apps[i].Commit(a.Block); err != nil {
				n.t.Fatalf("replica %d applying block %d: %v", i, a.Block.Header.Height, err)
			}
			committed = true
		case consensus.StartTimer:
			n.timers[i][a.ID] = n.now + a.Delay
		case consensus.StopTimer:
			delete(n.timers[i], a.ID)
		}
	}
	if committed {
		n.apply(i, n.engs[i].OnCommitApplied(n.now))
	}
}

// run delivers every queued envelope, then fires the earliest timer,
// until no timer is due by until.
func (n *engineNet) run(until consensus.Time) {
	for {
		if len(n.queue) > 0 {
			m := n.queue[0]
			n.queue = n.queue[1:]
			env := m.env
			if n.tamper != nil {
				if env = n.tamper(m.from, m.to, env); env == nil {
					continue
				}
			}
			n.apply(m.to, n.engs[m.to].OnEnvelope(n.now, env))
			continue
		}
		who, id, at := -1, consensus.TimerID(0), consensus.Time(0)
		for i, ts := range n.timers {
			for tid, due := range ts {
				if who < 0 || due < at || (due == at && (i < who || i == who && tid < id)) {
					who, id, at = i, tid, due
				}
			}
		}
		if who < 0 || at > until {
			return
		}
		delete(n.timers[who], id)
		n.now = at
		n.apply(who, n.engs[who].OnTimer(n.now, id))
	}
}
