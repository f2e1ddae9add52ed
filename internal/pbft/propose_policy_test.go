package pbft_test

import (
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// The proposal policy (DESIGN.md 5l), driven on one engine — view 0's
// primary — with hand-made peer votes and a virtual clock. The rig's
// progress timeout is one second, its base batch 8.

// newPrimaryRig builds an n-member committee and the engine of view 0's
// primary.
func newPrimaryRig(t *testing.T, n int) *unitRig {
	t.Helper()
	r := newUnitRigN(t, n, newUnitRigN(t, n, 0, nil).primaryPos(), nil)
	r.eng.Init(0)
	return r
}

// request submits tx at this node as runtime.Node.Submit does.
func (r *unitRig) request(at consensus.Time, tx *types.Transaction) []consensus.Action {
	r.t.Helper()
	if err := r.app.SubmitTx(tx); err != nil {
		r.t.Fatal(err)
	}
	return r.eng.OnRequest(at, tx)
}

// proposalsIn decodes the pre-prepares broadcast in acts.
func proposalsIn(t *testing.T, acts []consensus.Action) []*pbft.PrePrepare {
	t.Helper()
	var out []*pbft.PrePrepare
	for _, a := range acts {
		bc, ok := a.(consensus.Broadcast)
		if !ok || bc.Env.MsgKind != consensus.KindPrePrepare {
			continue
		}
		var pp pbft.PrePrepare
		if err := consensus.Open(bc.Env, consensus.KindPrePrepare, &pp); err != nil {
			t.Fatal(err)
		}
		out = append(out, &pp)
	}
	return out
}

// oneProposal returns the only pre-prepare in acts.
func oneProposal(t *testing.T, acts []consensus.Action, when string) *pbft.PrePrepare {
	t.Helper()
	pps := proposalsIn(t, acts)
	if len(pps) != 1 {
		t.Fatalf("%s: %d pre-prepares, want exactly one", when, len(pps))
	}
	return pps[0]
}

// holdTimer returns the timer in acts that is shorter than any progress
// or slot deadline — the hold — or nil.
func holdTimer(acts []consensus.Action) *consensus.StartTimer {
	for _, a := range acts {
		if st, ok := a.(consensus.StartTimer); ok && st.Delay < time.Second {
			return &st
		}
	}
	return nil
}

func stopped(acts []consensus.Action, id consensus.TimerID) bool {
	for _, a := range acts {
		if st, ok := a.(consensus.StopTimer); ok && st.ID == id {
			return true
		}
	}
	return false
}

// finishRound carries the primary's proposal pp through its prepare and
// commit quorums at time at, applies the block as the runtime would, and
// returns what OnCommitApplied produced.
func (r *unitRig) finishRound(at consensus.Time, pp *pbft.PrePrepare) []consensus.Action {
	r.t.Helper()
	var done []consensus.Action
	for _, vote := range []func(int, uint64, gcrypto.Hash) *consensus.Envelope{
		r.prepareAt,
		r.commitAt,
	} {
		sent := 0
		for i := 0; sent < r.com.Quorum()-1; i++ {
			if i == r.self {
				continue
			}
			done = append(done, r.eng.OnEnvelope(at, vote(i, pp.Seq, pp.Digest))...)
			sent++
		}
	}
	blocks := commitsOf(done)
	if len(blocks) != 1 || blocks[0].Hash() != pp.Digest {
		r.t.Fatalf("slot %d: %d blocks executed, want the proposal alone", pp.Seq, len(blocks))
	}
	if len(proposalsIn(r.t, done)) != 0 {
		r.t.Fatalf("slot %d: a proposal left before the commit was applied", pp.Seq)
	}
	if err := r.app.Commit(blocks[0]); err != nil {
		r.t.Fatal(err)
	}
	return r.eng.OnCommitApplied(at)
}

// heldBacklog runs one round that begins at 0 and ends at round, with
// backlog transactions arriving meanwhile, and returns the hold armed
// when its commit was applied.
func (r *unitRig) heldBacklog(round time.Duration, backlog int) *consensus.StartTimer {
	r.t.Helper()
	pp := oneProposal(r.t, r.request(0, clientTx(0, 1)), "idle arrival")
	for k := 1; k <= backlog; k++ {
		if acts := r.request(round*time.Duration(k)/time.Duration(backlog+1), clientTx(k, 1)); len(proposalsIn(r.t, acts)) != 0 {
			r.t.Fatal("an under-full speculative slot was proposed")
		}
	}
	acts := r.finishRound(round, pp)
	if len(proposalsIn(r.t, acts)) != 0 {
		r.t.Fatalf("%d pending behind a finished round were proposed back to back", backlog)
	}
	hold := holdTimer(acts)
	if hold == nil {
		r.t.Fatal("no hold armed for the under-full backlog")
	}
	return hold
}

func TestProposalPolicyIdleArrival(t *testing.T) {
	r := newPrimaryRig(t, 22)
	pp := oneProposal(t, r.request(0, clientTx(0, 1)), "first arrival")
	// The round ends on an empty pool: nothing to hold, and the next
	// arrival, however much later, goes out in the call that brings it.
	if acts := r.finishRound(20*time.Millisecond, pp); holdTimer(acts) != nil || len(proposalsIn(t, acts)) != 0 {
		t.Fatal("an empty pool armed a hold or produced a proposal")
	}
	pp = oneProposal(t, r.request(50*time.Millisecond, clientTx(1, 1)), "arrival on an idle primary")
	if len(pp.Block.Txs) != 1 {
		t.Fatalf("idle proposal carries %d transactions", len(pp.Block.Txs))
	}
	if c := r.eng.TakeCounts(); c.ProposalsHeld != 0 || c.ProposalsHeldFired != 0 {
		t.Fatalf("idle path counted holds: %+v", c)
	}
}

func TestProposalPolicyUnderfullWaitsHalfARound(t *testing.T) {
	// n = 22: f = 7, so fewer than 7 pending do not pay for a round.
	r := newPrimaryRig(t, 22)
	const round = 20 * time.Millisecond
	hold := r.heldBacklog(round, 3)
	if hold.Delay != round/2 {
		t.Fatalf("hold of %v, want half the round just measured (%v)", hold.Delay, round)
	}
	for k := 4; k <= 5; k++ {
		if acts := r.request(round+time.Duration(k)*time.Millisecond, clientTx(k, 1)); len(proposalsIn(t, acts)) != 0 {
			t.Fatalf("proposed with %d pending, below the threshold", k)
		}
	}
	pp := oneProposal(t, r.eng.OnTimer(round+hold.Delay, hold.ID), "hold expired")
	if len(pp.Block.Txs) != 5 || pp.Seq != 2 {
		t.Fatalf("slot %d carries %d transactions, want slot 2 with all 5 pending", pp.Seq, len(pp.Block.Txs))
	}
	if c := r.eng.TakeCounts(); c.ProposalsHeld != 1 || c.ProposalsHeldFired != 1 {
		t.Fatalf("counts %+v, want one hold that ran its time", c)
	}
}

func TestProposalPolicyThresholdEndsHold(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, threshold int
	}{
		{"f", 22, 7},          // min(f = 7, batch 8)
		{"base batch", 40, 8}, // min(f = 13, batch 8)
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPrimaryRig(t, tc.n)
			const round = 20 * time.Millisecond
			hold := r.heldBacklog(round, 3)
			for k := 4; k < tc.threshold; k++ {
				if acts := r.request(round+time.Duration(k)*time.Millisecond, clientTx(k, 1)); len(proposalsIn(t, acts)) != 0 {
					t.Fatalf("proposed with %d pending, below the threshold %d", k, tc.threshold)
				}
			}
			acts := r.request(round+time.Duration(tc.threshold)*time.Millisecond, clientTx(tc.threshold, 1))
			pp := oneProposal(t, acts, "threshold reached")
			if len(pp.Block.Txs) != tc.threshold {
				t.Fatalf("proposal carries %d transactions, want %d", len(pp.Block.Txs), tc.threshold)
			}
			if !stopped(acts, hold.ID) {
				t.Fatal("the hold's timer was left running")
			}
			if stale := r.eng.OnTimer(2*round, hold.ID); len(stale) != 0 {
				t.Fatalf("the stale hold timer produced %d actions", len(stale))
			}
			if c := r.eng.TakeCounts(); c.ProposalsHeld != 1 || c.ProposalsHeldFired != 0 {
				t.Fatalf("counts %+v, want one hold ended early", c)
			}
		})
	}
}

func TestProposalPolicyControlNeverHeld(t *testing.T) {
	r := newPrimaryRig(t, 22)
	pp := oneProposal(t, r.request(0, clientTx(0, 1)), "idle arrival")
	report := clientTx(1, 1)
	report.Type, report.Payload = types.TxLocationReport, nil
	report.Sign(gcrypto.DeterministicKeyPair(1001))
	r.request(5*time.Millisecond, clientTx(2, 1))
	r.request(10*time.Millisecond, report)
	acts := r.finishRound(20*time.Millisecond, pp)
	if next := oneProposal(t, acts, "control transaction pending"); len(next.Block.Txs) != 2 {
		t.Fatalf("proposal carries %d transactions, want both pending", len(next.Block.Txs))
	}
	if holdTimer(acts) != nil || r.eng.TakeCounts().ProposalsHeld != 0 {
		t.Fatal("a pool holding a control-lane transaction was held")
	}
}

func TestProposalPolicyHoldBounded(t *testing.T) {
	// A round of 600 ms against a 1 s progress timeout: the hold is not
	// half the round but a quarter of the timeout, so a request waits at
	// most round + hold + round and no backup's progress timer fires on a
	// merely held one.
	r := newPrimaryRig(t, 7)
	if hold := r.heldBacklog(600*time.Millisecond, 1); hold.Delay != 250*time.Millisecond {
		t.Fatalf("hold of %v, want ViewChangeTimeout/4", hold.Delay)
	}
}

func TestProposalPolicyViewChangeDropsHold(t *testing.T) {
	// n = 7, f = 2. The primary holds one transaction when f+1 backups ask
	// for view 7 — which it leads again — and two more follow.
	r := newPrimaryRig(t, 7)
	const round = 20 * time.Millisecond
	hold := r.heldBacklog(round, 1)
	var acts []consensus.Action
	for i, asked := 0, 0; asked < r.com.Quorum()-1; i++ {
		if i == r.self {
			continue
		}
		asked++
		vc := consensus.Seal(r.keys[i], &pbft.ViewChange{Era: 0, NewView: 7, LastStable: 0})
		acts = r.eng.OnEnvelope(round+time.Millisecond, vc)
		if asked == r.com.WeakQuorum() {
			if !r.eng.InViewChange() || !stopped(acts, hold.ID) {
				t.Fatal("joining the view change left the hold armed")
			}
			if stale := r.eng.OnTimer(round+time.Millisecond, hold.ID); len(stale) != 0 {
				t.Fatal("the dropped hold's timer still acts")
			}
		}
	}
	// The new view's first proposal is never held, under-full or not.
	if r.eng.View() != 7 || !hasKind(acts, consensus.KindNewView) {
		t.Fatalf("setup: view %d, want 7 with this replica leading it", r.eng.View())
	}
	if pp := oneProposal(t, acts, "entering the new view"); pp.View != 7 || len(pp.Block.Txs) != 1 {
		t.Fatalf("new view proposed %d transactions in view %d", len(pp.Block.Txs), pp.View)
	}
	if holdTimer(acts) != nil {
		t.Fatal("the new view's first proposal was held")
	}
}

func TestProposalPolicyCommitteeOfFour(t *testing.T) {
	// f = 1: no backlog is under-full, and the engine's actions are the
	// parent's, byte for byte (every proposal in the call that made it
	// possible, no timer but the progress and slot deadlines).
	r := newPrimaryRig(t, 4)
	pp := oneProposal(t, r.request(0, clientTx(0, 1)), "idle arrival")
	for k := 1; k <= 3; k++ {
		r.request(time.Duration(5*k)*time.Millisecond, clientTx(k, 1))
	}
	// Three pending behind the first round, one behind the second.
	for round, want := range []int{3, 1} {
		acts := r.finishRound(time.Duration(20*(round+1))*time.Millisecond, pp)
		pp = oneProposal(t, acts, "commit applied with a backlog")
		if len(pp.Block.Txs) != want {
			t.Fatalf("round %d: %d transactions proposed, want %d", round+1, len(pp.Block.Txs), want)
		}
		if holdTimer(acts) != nil {
			t.Fatal("a committee of four armed a hold")
		}
		r.request(time.Duration(20*(round+1)+5)*time.Millisecond, clientTx(4+round, 1))
	}
	if c := r.eng.TakeCounts(); c.ProposalsHeld != 0 {
		t.Fatalf("counts %+v", c)
	}
}
