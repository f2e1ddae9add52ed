package pbft_test

import (
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// startTimers returns the timers started in acts.
func startTimers(acts []consensus.Action) []consensus.StartTimer {
	var out []consensus.StartTimer
	for _, a := range acts {
		if st, ok := a.(consensus.StartTimer); ok {
			out = append(out, st)
		}
	}
	return out
}

// oneTimer returns the only timer started in acts.
func oneTimer(t *testing.T, acts []consensus.Action, when string) consensus.StartTimer {
	t.Helper()
	sts := startTimers(acts)
	if len(sts) != 1 {
		t.Fatalf("%s: %d timers started, want one", when, len(sts))
	}
	return sts[0]
}

// TestTimeoutComesFromTimedRounds drives view 0's primary with no fixed
// timeout through rounds of a chosen length. The timeout is the initial
// value until RoundWindow rounds are timed, then RoundFactor times the
// slowest of the last RoundWindow, never below the floor; it follows the
// rounds both ways, and the progress timer a request arms waits exactly
// that long.
func TestTimeoutComesFromTimedRounds(t *testing.T) {
	// No peer checkpoints reach the rig: a long interval keeps every slot
	// under the high watermark.
	r := newUnitRigN(t, 4, newUnitRigN(t, 4, 0, nil).primaryPos(), func(c *pbft.Config) {
		c.Node, c.CheckpointInterval = nil, 4*pbft.RoundWindow
	})
	r.eng.Init(0)
	var now consensus.Time
	nonce := uint64(0)
	round := func(d time.Duration) {
		t.Helper()
		nonce++
		pp := oneProposal(t, r.request(now, clientTx(0, nonce)), "request")
		now += d
		r.finishRound(now, pp)
		now += time.Millisecond
	}
	if got := r.eng.Timeout(); got != pbft.InitialTimeout {
		t.Fatalf("timeout %v before any round, want the initial %v", got, pbft.InitialTimeout)
	}
	for k := 0; k < pbft.RoundWindow-1; k++ {
		round(50 * time.Millisecond)
	}
	if got := r.eng.Timeout(); got != pbft.InitialTimeout {
		t.Fatalf("timeout %v after %d rounds, want the initial %v", got, pbft.RoundWindow-1, pbft.InitialTimeout)
	}
	round(50 * time.Millisecond)
	if got := r.eng.Timeout(); got != pbft.MinTimeout {
		t.Fatalf("timeout %v after 50 ms rounds, want the floor %v", got, pbft.MinTimeout)
	}
	slow := 2 * pbft.MinTimeout / pbft.RoundFactor
	round(slow)
	want := pbft.RoundFactor * slow
	if got := r.eng.Timeout(); got != want {
		t.Fatalf("timeout %v after one %v round, want %v", got, slow, want)
	}
	nonce++
	acts := r.request(now, clientTx(0, nonce))
	for _, st := range startTimers(acts) { // the progress and the slot timer
		if st.Delay != want {
			t.Fatalf("timer of %v armed with the proposal, want the timeout %v", st.Delay, want)
		}
	}
	now += 50 * time.Millisecond
	r.finishRound(now, oneProposal(t, acts, "request after a slow round"))
	now += time.Millisecond
	for k := 1; k < pbft.RoundWindow; k++ {
		round(50 * time.Millisecond)
	}
	if got := r.eng.Timeout(); got != pbft.MinTimeout {
		t.Fatalf("timeout %v once the slow round left the window, want the floor %v", got, pbft.MinTimeout)
	}
}

// TestUnproductiveViewDoublesPatience is PBFT's liveness rule: when the
// timer of a view that a view change opened runs out before anything
// executes there, the next view change and the view after it wait twice
// as long, and only a slot that executes restores the base timeout —
// entering a view does not, or a view whose primary cannot make progress
// would be abandoned at the base period over and over.
func TestUnproductiveViewDoublesPatience(t *testing.T) {
	const T = time.Second
	probe := newUnitRig(t, 0)
	self := 0
	for probe.com.IndexOf(probe.com.Primary(0)) == self || probe.com.IndexOf(probe.com.Primary(1)) == self ||
		probe.com.IndexOf(probe.com.Primary(2)) == self {
		self++
	}
	r := newUnitRig(t, self)
	r.eng.Init(0)
	others := func(v uint64) []int { // two members that are neither self nor v's primary
		var out []int
		for i := 0; len(out) < 2; i++ {
			if i != self && i != r.com.IndexOf(r.com.Primary(v)) {
				out = append(out, i)
			}
		}
		return out
	}
	ownVC := func(acts []consensus.Action) *consensus.Envelope {
		for _, a := range acts {
			if bc, ok := a.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindViewChange {
				return bc.Env
			}
		}
		t.Fatal("no view change broadcast")
		return nil
	}
	// enter delivers the NewView that opens view v, certified by self's
	// view change and two others', and returns what the engine did.
	enter := func(at consensus.Time, v uint64, own *consensus.Envelope) []consensus.Action {
		nv := &pbft.NewView{View: v, ViewChangeEnvs: [][]byte{consensus.EncodeEnvelope(own)}}
		for _, i := range others(v) {
			nv.ViewChangeEnvs = append(nv.ViewChangeEnvs, consensus.EncodeEnvelope(r.seal(i, &pbft.ViewChange{NewView: v})))
		}
		acts := r.eng.OnEnvelope(at, r.seal(r.com.IndexOf(r.com.Primary(v)), nv))
		if r.eng.View() != v || r.eng.InViewChange() {
			t.Fatalf("NewView for %d not entered: view %d, in view change %v", v, r.eng.View(), r.eng.InViewChange())
		}
		return acts
	}

	tx := clientTx(0, 1)
	progress := oneTimer(t, r.request(0, tx), "request")
	if progress.Delay != T {
		t.Fatalf("progress timer %v in view 0, want %v", progress.Delay, T)
	}
	acts := r.eng.OnTimer(T, progress.ID)
	if vc := oneTimer(t, acts, "view change to 1"); vc.Delay != T {
		t.Fatalf("view change to 1 waits %v, want %v", vc.Delay, T)
	}
	progress = oneTimer(t, enter(T+time.Millisecond, 1, ownVC(acts)), "entering view 1")
	if progress.Delay != T {
		t.Fatalf("progress timer %v in view 1, want %v", progress.Delay, T)
	}
	// View 1 executes nothing within T.
	acts = r.eng.OnTimer(2*T, progress.ID)
	if vc := oneTimer(t, acts, "view change to 2"); vc.Delay != 2*T {
		t.Fatalf("view change to 2 after an unproductive view 1 waits %v, want %v", vc.Delay, 2*T)
	}
	progress = oneTimer(t, enter(2*T+time.Millisecond, 2, ownVC(acts)), "entering view 2")
	if progress.Delay != 2*T {
		t.Fatalf("progress timer %v in view 2, want %v", progress.Delay, 2*T)
	}

	// View 2's primary gets tx committed: patience is back to T.
	at := 2*T + 10*time.Millisecond
	p2 := r.com.IndexOf(r.com.Primary(2))
	b := types.NewBlock(types.BlockHeader{
		Height: 1, View: 2, Seq: 1,
		PrevHash:  r.app.Chain().Head().Hash(),
		Proposer:  r.com.Primary(2),
		Timestamp: epoch.Add(time.Second),
	}, []types.Transaction{*tx})
	slot := func(i int, p consensus.Payload) *consensus.Envelope { return r.seal(i, p) }
	hdr := consensus.SlotHeader{View: 2, Seq: 1, Digest: b.Hash()}
	done := r.eng.OnEnvelope(at, slot(p2, pbft.NewPrePrepare(0, 2, 1, b)))
	for _, i := range others(2) {
		done = append(done, r.eng.OnEnvelope(at, slot(i, &pbft.Prepare{SlotHeader: hdr}))...)
	}
	for _, i := range others(2) {
		done = append(done, r.eng.OnEnvelope(at, slot(i, &pbft.Commit{SlotHeader: hdr}))...)
	}
	blocks := commitsOf(done)
	if len(blocks) != 1 {
		t.Fatalf("%d blocks executed in view 2, want 1", len(blocks))
	}
	if err := r.app.Commit(blocks[0]); err != nil {
		t.Fatal(err)
	}
	r.eng.OnCommitApplied(at)
	if st := oneTimer(t, r.request(at, clientTx(1, 1)), "request after an execution"); st.Delay != T {
		t.Fatalf("progress timer %v after view 2 executed a slot, want %v", st.Delay, T)
	}
}

// TestProgressTimerStopsWithItsWork: an executed block's transactions
// stay pooled until the runtime applies it, so the execution that
// re-arms the progress timer counts them as outstanding work. Once the
// block is applied and the pool is empty, that timer must stop: left
// running, it would fire a timeout after the execution on whatever
// request came next, however young, and a replica whose next round ended
// just then would start a view change nobody joins.
func TestProgressTimerStopsWithItsWork(t *testing.T) {
	r := newPrimaryRig(t, 4)
	pp := oneProposal(t, r.request(0, clientTx(0, 1)), "request")
	acts := r.finishRound(10*time.Millisecond, pp)
	if len(startTimers(acts)) != 0 {
		t.Fatal("a timer armed with nothing pending")
	}
	var stops int
	for _, a := range acts {
		if _, ok := a.(consensus.StopTimer); ok {
			stops++
		}
	}
	if stops != 1 {
		t.Fatalf("%d timers stopped once the block was applied, want the progress timer", stops)
	}
	// The next request, however late, starts a progress timer of its own
	// beside its slot's.
	sts := startTimers(r.request(900*time.Millisecond, clientTx(0, 2)))
	if len(sts) != 2 {
		t.Fatalf("%d timers armed at the next request, want its progress and slot timers", len(sts))
	}
}
