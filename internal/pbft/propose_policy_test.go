package pbft_test

import (
	"crypto/sha256"
	"fmt"
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
	if len(pp.TxIDs) != 1 {
		t.Fatalf("idle proposal carries %d transactions", len(pp.TxIDs))
	}
	if c := r.eng.Tally(); c.ProposalsHeld != 0 || c.ProposalsHeldFired != 0 {
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
	if len(pp.TxIDs) != 5 || pp.Seq != 2 {
		t.Fatalf("slot %d carries %d transactions, want slot 2 with all 5 pending", pp.Seq, len(pp.TxIDs))
	}
	if c := r.eng.Tally(); c.ProposalsHeld != 1 || c.ProposalsHeldFired != 1 {
		t.Fatalf("counts %+v, want one hold that ran its time", c)
	}
}

func TestProposalPolicyThresholdEndsHold(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		n, threshold, ceiling int
	}{
		{"f", 22, 7, 0},          // min(f = 7, batch 8)
		{"base batch", 40, 8, 0}, // min(f = 13, batch 8)
		// min(f = 33, batch 8): the ceiling speculative slots wait for
		// does not raise the hold's threshold.
		{"base batch under a ceiling", 100, 8, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newPrimaryRig(t, tc.n)
			r.app.SetMaxBatch(tc.ceiling)
			const round = 20 * time.Millisecond
			hold := r.heldBacklog(round, 3)
			for k := 4; k < tc.threshold; k++ {
				if acts := r.request(round+time.Duration(k)*time.Millisecond, clientTx(k, 1)); len(proposalsIn(t, acts)) != 0 {
					t.Fatalf("proposed with %d pending, below the threshold %d", k, tc.threshold)
				}
			}
			acts := r.request(round+time.Duration(tc.threshold)*time.Millisecond, clientTx(tc.threshold, 1))
			pp := oneProposal(t, acts, "threshold reached")
			if len(pp.TxIDs) != tc.threshold {
				t.Fatalf("proposal carries %d transactions, want %d", len(pp.TxIDs), tc.threshold)
			}
			if !stopped(acts, hold.ID) {
				t.Fatal("the hold's timer was left running")
			}
			if stale := r.eng.OnTimer(2*round, hold.ID); len(stale) != 0 {
				t.Fatalf("the stale hold timer produced %d actions", len(stale))
			}
			if c := r.eng.Tally(); c.ProposalsHeld != 1 || c.ProposalsHeldFired != 0 {
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
	if next := oneProposal(t, acts, "control transaction pending"); len(next.TxIDs) != 2 {
		t.Fatalf("proposal carries %d transactions, want both pending", len(next.TxIDs))
	}
	if holdTimer(acts) != nil || r.eng.Tally().ProposalsHeld != 0 {
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
		vc := r.seal(i, &pbft.ViewChange{Era: 0, NewView: 7, LastStable: 0})
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
	if pp := oneProposal(t, acts, "entering the new view"); pp.View != 7 || len(pp.TxIDs) != 1 {
		t.Fatalf("new view proposed %d transactions in view %d", len(pp.TxIDs), pp.View)
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
		if len(pp.TxIDs) != want {
			t.Fatalf("round %d: %d transactions proposed, want %d", round+1, len(pp.TxIDs), want)
		}
		if holdTimer(acts) != nil {
			t.Fatal("a committee of four armed a hold")
		}
		r.request(time.Duration(20*(round+1)+5)*time.Millisecond, clientTx(4+round, 1))
	}
	if c := r.eng.Tally(); c.ProposalsHeld != 0 {
		t.Fatalf("counts %+v", c)
	}
}

// A speculative slot carries a full block or is not proposed (DESIGN.md
// 5e): with its head slot in flight, the primary opens a second slot only
// when a ceiling's worth of transactions waits outside it, and however
// deep the backlog, no more than MaxInFlight slots run at once.
func TestProposalPolicySpeculativeSlotCarriesTheCeiling(t *testing.T) {
	const ceiling, depth = 32, 3
	r := newUnitRigN(t, 4, newUnitRigN(t, 4, 0, nil).primaryPos(), func(c *pbft.Config) { c.MaxInFlight = depth })
	r.eng.Init(0)
	r.app.SetMaxBatch(ceiling)
	head := oneProposal(t, r.request(0, clientTx(0, 1)), "idle arrival")
	for k := 1; k < ceiling; k++ {
		if acts := r.request(time.Duration(k)*time.Microsecond, clientTx(k, 1)); len(proposalsIn(t, acts)) != 0 {
			t.Fatalf("a second slot opened on %d pending, below the ceiling %d", k, ceiling)
		}
	}
	pp := oneProposal(t, r.request(ceiling*time.Microsecond, clientTx(ceiling, 1)), "a ceiling pending")
	if pp.Seq != head.Seq+1 || len(pp.TxIDs) != ceiling {
		t.Fatalf("slot %d carries %d transactions, want slot %d with %d", pp.Seq, len(pp.TxIDs), head.Seq+1, ceiling)
	}
	// Three ceilings more: one further slot fills the window, and the rest
	// waits for it to drain.
	var proposed []*pbft.PrePrepare
	for k := ceiling + 1; k <= 4*ceiling; k++ {
		proposed = append(proposed, proposalsIn(t, r.request(time.Duration(k)*time.Microsecond, clientTx(k, 1)))...)
	}
	if len(proposed) != depth-2 || len(proposed[0].TxIDs) != ceiling {
		t.Fatalf("%d further slots proposed on a backlog of three ceilings, want %d full ones", len(proposed), depth-2)
	}
	if used, _ := r.eng.InFlight(); used != depth {
		t.Fatalf("%d slots in flight, want MaxInFlight = %d", used, depth)
	}
}

// The proposal policy acts as it did before speculative slots waited for
// the ceiling, and before the engine named each slot's parent itself,
// byte for byte: each scripted run hashes its action stream to the digest
// recorded under the earlier rules.
//   - "no ceiling": the head slot, two base-batch speculative slots, the
//     hold and its early end (n = 7: base batch 8, hold threshold
//     min(f = 2, 8)).
//   - "ceiling 4x base": the same script under a ceiling of 32, so each
//     speculative slot waits for 32 transactions outside the window.
//   - "backup chain": a backup validating a pipelined chain — a slot
//     ahead of its parent, the head slot, speculative children, children
//     that re-pack an in-flight transaction or name the wrong parent, and
//     a head slot whose parent is a retained, applied block.
func TestProposalPolicyNoCeilingUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, note func([]consensus.Action) []consensus.Action)
		want string
	}{
		{"no ceiling", primaryScript(0, 18, 8, time.Millisecond),
			"500d763b09b158f3270b6607b7f9d4548b200353b2851febc0ad092e59e71d08"},
		{"ceiling 4x base", primaryScript(32, 66, 32, 250*time.Microsecond),
			"af967db512a79cf5458f7c527b21d7f6fcac47eb80628c458af51f478a9b4c50"},
		{"backup chain", backupChainScript,
			"7d90a55a6c90fe1001b6bdee8d7a630817776a2238f4dc0e97f64eb28bd66c45"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			tc.run(t, func(acts []consensus.Action) []consensus.Action {
				for _, a := range acts {
					switch v := a.(type) {
					case consensus.Broadcast:
						fmt.Fprintf(h, "B%x|", v.To)
						h.Write(consensus.EncodeEnvelope(v.Env))
					case consensus.Send:
						fmt.Fprintf(h, "S%x|", v.To)
						h.Write(consensus.EncodeEnvelope(v.Env))
					case consensus.CommitBlock:
						fmt.Fprintf(h, "C%x|", v.Block.Hash())
					default:
						fmt.Fprintf(h, "%T%+v|", a, a)
					}
				}
				return acts
			})
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
				t.Fatalf("action digest %s, want %s", got, tc.want)
			}
		})
	}
}

// primaryScript drives view 0's primary at n = 7 under the given ceiling
// (0: none): arrivals transactions step apart make the head slot and two
// speculative slots of full transactions, with one left over; each slot
// goes through its quorums, the left-over one is held, and one more
// arrival ends the hold.
func primaryScript(ceiling, arrivals, full int, step time.Duration) func(*testing.T, func([]consensus.Action) []consensus.Action) {
	return func(t *testing.T, note func([]consensus.Action) []consensus.Action) {
		r := newPrimaryRig(t, 7)
		if ceiling > 0 {
			r.app.SetMaxBatch(ceiling)
		}
		var pps []*pbft.PrePrepare
		ms := func(k int) consensus.Time { return time.Duration(k) * time.Millisecond }
		for k := 0; k < arrivals; k++ {
			pps = append(pps, proposalsIn(t, note(r.request(time.Duration(k)*step, clientTx(k, 1))))...)
		}
		if len(pps) != 3 || len(pps[1].TxIDs) != full || len(pps[2].TxIDs) != full {
			t.Fatalf("setup: %d slots proposed, want the head and two of %d", len(pps), full)
		}
		// Each slot through its quorums; the last leaves one pending, which
		// is held until an arrival brings the pool to f = 2.
		var acts []consensus.Action
		for i, pp := range pps {
			at := ms(20 + 10*i)
			var done []consensus.Action
			for _, vote := range []func(int, uint64, gcrypto.Hash) *consensus.Envelope{r.prepareAt, r.commitAt} {
				for j, sent := 0, 0; sent < r.com.Quorum()-1; j++ {
					if j != r.self {
						done = append(done, note(r.eng.OnEnvelope(at, vote(j, pp.Seq, pp.Digest)))...)
						sent++
					}
				}
			}
			for _, b := range commitsOf(done) {
				if err := r.app.Commit(b); err != nil {
					t.Fatal(err)
				}
				acts = note(r.eng.OnCommitApplied(at))
			}
		}
		hold := holdTimer(acts)
		if hold == nil {
			t.Fatal("setup: no hold armed for the one left over")
		}
		if pp := oneProposal(t, note(r.request(ms(55), clientTx(arrivals, 1))), "f pending"); len(pp.TxIDs) != 2 {
			t.Fatalf("setup: the held head slot carries %d transactions, want 2", len(pp.TxIDs))
		}
		note(r.eng.OnTimer(ms(55)+hold.Delay, hold.ID))
	}
}

// backupChainScript drives a backup at n = 7 through a pipelined chain of
// view 0's proposals.
func backupChainScript(t *testing.T, note func([]consensus.Action) []consensus.Action) {
	prim := newUnitRigN(t, 7, 0, nil).primaryPos()
	r := newUnitRigN(t, 7, (prim+1)%7, nil)
	note(r.eng.Init(0))
	ms := func(k int) consensus.Time { return time.Duration(k) * time.Millisecond }
	blocks, envs := r.chainProposals(5)
	child := func(parent *types.Block, txs ...types.Transaction) *consensus.Envelope {
		seq := parent.Header.Seq + 1
		return r.prePrepare(types.NewBlock(types.BlockHeader{
			Height: seq, Era: 0, View: 0, Seq: seq,
			PrevHash:  parent.Hash(),
			Proposer:  r.com.Primary(0),
			Timestamp: epoch.Add(time.Duration(seq) * time.Second),
		}, txs))
	}
	// Slot 3 ahead of its parent is held back, and replays once slot 2
	// is in: slot 1 is the head slot, 2 and 3 speculative children.
	var prepared []uint64
	for k := range 3 {
		prepared = append(prepared, prepareSeqs(t, note(r.eng.OnEnvelope(ms(k+1), envs[(k+2)%3])))...)
	}
	if len(prepared) != 3 || !containsSeq(prepared, 3) {
		t.Fatalf("setup: slots %v prepared, want 1, 2 and the held-back 3", prepared)
	}
	// Two bad children for slot 4: one re-packs slot 2's transaction,
	// one names slot 2 as its parent. Neither is prepared; the real one is.
	tx := clientTx(200, 4)
	r.pool(*tx)
	for k, env := range []*consensus.Envelope{child(blocks[2], blocks[1].Txs[0], *tx), child(blocks[1], *tx), envs[3]} {
		if got := containsSeq(prepareSeqs(t, note(r.eng.OnEnvelope(ms(4+k), env))), 4); got != (k == 2) {
			t.Fatalf("setup: child %d of slot 3 prepared: %v", k, got)
		}
	}
	var others []int
	for i := 0; i < 7; i++ {
		if i != prim && i != r.self {
			others = append(others, i)
		}
	}
	for s := uint64(1); s <= 4; s++ {
		at := ms(10 + int(s))
		d := blocks[s-1].Hash()
		var done []consensus.Action
		for _, vote := range []func(int, uint64, gcrypto.Hash) *consensus.Envelope{r.prepareAt, r.commitAt} {
			for _, j := range others[:r.com.Quorum()-1] {
				done = append(done, note(r.eng.OnEnvelope(at, vote(j, s, d)))...)
			}
		}
		for _, b := range commitsOf(done) {
			if err := r.app.Commit(b); err != nil {
				t.Fatal(err)
			}
			note(r.eng.OnCommitApplied(at))
		}
	}
	if h := r.app.Chain().Height(); h != 4 {
		t.Fatalf("setup: chain at height %d, want 4", h)
	}
	// Slot 5's parent is the retained block of slot 4, now the head.
	if acts := note(r.eng.OnEnvelope(ms(20), envs[4])); !containsSeq(prepareSeqs(t, acts), 5) {
		t.Fatal("setup: slot 5 on the applied head was not prepared")
	}
}
