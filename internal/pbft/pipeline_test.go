package pbft_test

import (
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

// newPipeRig builds a rig whose engine runs with an explicit pipelining
// depth and checkpoint interval (0 = engine defaults), optionally
// WAL-backed for restart tests.
func newPipeRig(t *testing.T, selfPos int, k uint64, inflight int, wal pbft.WAL, durable *pbft.DurableState) *unitRig {
	t.Helper()
	base := newUnitRig(t, selfPos)
	chain, err := ledger.NewChain(base.genesis)
	if err != nil {
		t.Fatal(err)
	}
	app := runtime.NewApp(chain, runtime.NewMempool(0, nil), base.keys[selfPos].Address(), epoch, 8)
	eng, err := pbft.New(pbft.Config{
		Committee: base.com, Key: base.keys[selfPos], App: app,
		Node: pbft.NewNodeState(consensus.NewTimerAllocator(), time.Second), StartHeight: 1,
		CheckpointInterval: k,
		MaxInFlight:        inflight,
		WAL:                wal, Durable: durable,
	})
	if err != nil {
		t.Fatal(err)
	}
	base.eng = eng
	base.app = app
	return base
}

// chainProposals builds n hash-chained blocks (seq 1..n) from view 0's
// primary, each carrying a distinct transaction, and seals one
// pre-prepare per slot.
func (r *unitRig) chainProposals(n int) ([]*types.Block, []*consensus.Envelope) {
	chain, _ := ledger.NewChain(r.genesis)
	prev := chain.Head().Hash()
	blocks := make([]*types.Block, n)
	envs := make([]*consensus.Envelope, n)
	for s := 1; s <= n; s++ {
		tx := clientTx(100+s, uint64(s))
		b := types.NewBlock(types.BlockHeader{
			Height: uint64(s), Era: 0, View: 0, Seq: uint64(s),
			PrevHash:  prev,
			Proposer:  r.com.Primary(0),
			Timestamp: epoch.Add(time.Duration(s) * time.Second),
		}, []types.Transaction{*tx})
		r.pool(*tx)
		envs[s-1] = r.prePrepare(b)
		blocks[s-1] = b
		prev = b.Hash()
	}
	return blocks, envs
}

// prepareAt / commitAt seal votes for an arbitrary slot from position i.
func (r *unitRig) prepareAt(i int, seq uint64, digest gcrypto.Hash) *consensus.Envelope {
	return r.seal(i, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: seq, Digest: digest}})
}

func (r *unitRig) commitAt(i int, seq uint64, digest gcrypto.Hash) *consensus.Envelope {
	return r.seal(i, &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: seq, Digest: digest}})
}

// commitSeqs extracts the slot numbers of commit votes broadcast in acts.
func commitSeqs(t *testing.T, acts []consensus.Action) []uint64 {
	t.Helper()
	var out []uint64
	for _, a := range acts {
		bc, ok := a.(consensus.Broadcast)
		if !ok || bc.Env.MsgKind != consensus.KindCommit {
			continue
		}
		var c pbft.Commit
		if err := consensus.Open(bc.Env, consensus.KindCommit, &c); err != nil {
			t.Fatal(err)
		}
		out = append(out, c.Seq)
	}
	return out
}

// prepareSeqs extracts the slot numbers of prepare votes broadcast in acts.
func prepareSeqs(t *testing.T, acts []consensus.Action) []uint64 {
	t.Helper()
	var out []uint64
	for _, a := range acts {
		bc, ok := a.(consensus.Broadcast)
		if !ok || bc.Env.MsgKind != consensus.KindPrepare {
			continue
		}
		var p pbft.Prepare
		if err := consensus.Open(bc.Env, consensus.KindPrepare, &p); err != nil {
			t.Fatal(err)
		}
		out = append(out, p.Seq)
	}
	return out
}

func containsSeq(seqs []uint64, want uint64) bool {
	for _, s := range seqs {
		if s == want {
			return true
		}
	}
	return false
}

// otherBackups returns the two committee positions that are neither the
// primary nor selfPos.
func otherBackups(prim, selfPos int) (int, int) {
	var out []int
	for i := 0; i < 4; i++ {
		if i != prim && i != selfPos {
			out = append(out, i)
		}
	}
	return out[0], out[1]
}

// applyCommits mirrors the runtime: every CommitBlock in acts is applied
// to the rig chain (in emission order) and the engine notified.
func (r *unitRig) applyCommits(t *testing.T, acts []consensus.Action) []*types.Block {
	t.Helper()
	blocks := commitsOf(acts)
	for _, b := range blocks {
		if err := r.app.Commit(b); err != nil {
			t.Fatalf("apply height %d: %v", b.Header.Height, err)
		}
		r.eng.OnCommitApplied(0)
	}
	return blocks
}

// TestBackupPipelinesChainedProposals drives three chained slots through
// a backup concurrently: all three pre-prepares are accepted before any
// slot commits, commits may arrive out of order, and execution still
// streams strictly in sequence order.
func TestBackupPipelinesChainedProposals(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newPipeRig(t, selfPos, 0, 0, nil, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)

	blocks, envs := r.chainProposals(3)
	for s, env := range envs {
		acts := r.eng.OnEnvelope(0, env)
		if !containsSeq(prepareSeqs(t, acts), uint64(s+1)) {
			t.Fatalf("slot %d: chained pre-prepare not accepted while predecessors in flight", s+1)
		}
	}

	// Prepares for every slot, ascending: each slot reaches prepared and,
	// with its parent prepared, releases its commit immediately.
	var prepActs []consensus.Action
	for s := uint64(1); s <= 3; s++ {
		d := blocks[s-1].Hash()
		prepActs = append(prepActs, r.eng.OnEnvelope(0, r.prepareAt(p1, s, d))...)
		prepActs = append(prepActs, r.eng.OnEnvelope(0, r.prepareAt(p2, s, d))...)
	}
	cs := commitSeqs(t, prepActs)
	for s := uint64(1); s <= 3; s++ {
		if !containsSeq(cs, s) {
			t.Fatalf("commit for slot %d not broadcast while window in flight", s)
		}
	}

	// Quorum commits arrive for slot 2 FIRST: it may commit, but
	// execution must hold until slot 1 does.
	var acts []consensus.Action
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, 2, blocks[1].Hash()))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, 2, blocks[1].Hash()))...)
	if got := commitsOf(acts); len(got) != 0 {
		t.Fatal("slot 2 executed before slot 1 — in-order streaming broken")
	}
	if r.eng.NextSeq() != 1 {
		t.Fatalf("NextSeq=%d before slot 1 committed", r.eng.NextSeq())
	}

	// Slot 1's quorum releases both, strictly in order.
	acts = nil
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, 1, blocks[0].Hash()))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, 1, blocks[0].Hash()))...)
	done := r.applyCommits(t, acts)
	if len(done) != 2 || done[0].Header.Height != 1 || done[1].Header.Height != 2 {
		t.Fatalf("expected heights [1 2] to stream in order, got %d blocks", len(done))
	}

	acts = nil
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, 3, blocks[2].Hash()))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, 3, blocks[2].Hash()))...)
	done = r.applyCommits(t, acts)
	if len(done) != 1 || done[0].Header.Height != 3 {
		t.Fatal("slot 3 did not execute after its quorum")
	}
	if r.eng.NextSeq() != 4 {
		t.Fatalf("NextSeq=%d after executing 3 slots", r.eng.NextSeq())
	}
}

// TestCommitGateWaitsForParentPrepare pins the pipelining safety
// invariant: a slot's commit vote must not leave the replica until its
// parent slot is prepared locally, and preparing the parent releases
// the whole deferred suffix.
func TestCommitGateWaitsForParentPrepare(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newPipeRig(t, selfPos, 0, 0, nil, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)

	blocks, envs := r.chainProposals(2)
	r.eng.OnEnvelope(0, envs[0])
	r.eng.OnEnvelope(0, envs[1])

	// Slot 2 prepares first — its commit must stay withheld.
	var acts []consensus.Action
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p1, 2, blocks[1].Hash()))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, 2, blocks[1].Hash()))...)
	if containsSeq(commitSeqs(t, acts), 2) {
		t.Fatal("commit for slot 2 sent while slot 1 unprepared — parent gate broken")
	}

	// Slot 1 preparing releases both commits, in one cascade.
	acts = nil
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p1, 1, blocks[0].Hash()))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, 1, blocks[0].Hash()))...)
	cs := commitSeqs(t, acts)
	if !containsSeq(cs, 1) || !containsSeq(cs, 2) {
		t.Fatalf("parent preparing must release commits for both slots, got %v", cs)
	}
}

// TestSlotTimerCatchesLaterSlotStall is the regression test for the
// shared-timer stall: under the old single progress timer, slot 1
// executing reset the only deadline, so a primary could stall slot 2
// forever while drip-feeding progress on other slots. Each slot now
// owns its deadline; only that slot's execution retires it.
func TestSlotTimerCatchesLaterSlotStall(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newPipeRig(t, selfPos, 0, 0, nil, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)

	blocks, envs := r.chainProposals(2)
	r.eng.OnEnvelope(0, envs[0])
	acts2 := r.eng.OnEnvelope(0, envs[1])

	// Slot 2's own deadline was armed on acceptance: the only StartTimer
	// in its actions (the progress timer is already up from slot 1).
	var slot2Timer consensus.TimerID
	for _, a := range acts2 {
		if st, ok := a.(consensus.StartTimer); ok {
			slot2Timer = st.ID
		}
	}
	if slot2Timer == 0 {
		t.Fatal("accepted slot 2 proposal did not arm its own deadline")
	}

	// Slot 1 runs to execution; slot 2 stalls (its prepares never come).
	var acts []consensus.Action
	d := blocks[0].Hash()
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p1, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, 1, d))...)
	if len(r.applyCommits(t, acts)) != 1 {
		t.Fatal("setup: slot 1 did not execute")
	}
	// Slot 1's progress must not have retired slot 2's deadline.
	for _, a := range acts {
		if st, ok := a.(consensus.StopTimer); ok && st.ID == slot2Timer {
			t.Fatal("slot 1 executing stopped slot 2's deadline — the shared-timer stall bug")
		}
	}

	// The stalled slot's deadline fires: the replica must suspect the
	// primary even though the cluster "made progress" on slot 1.
	vcActs := r.eng.OnTimer(2*time.Second, slot2Timer)
	if !hasKind(vcActs, consensus.KindViewChange) {
		t.Fatal("stalled slot's deadline must start a view change")
	}
	if !r.eng.InViewChange() {
		t.Fatal("engine must be in view change after a slot deadline")
	}
}

// TestWatermarkEdges exercises both acceptance boundaries: a proposal
// at exactly the high watermark is accepted, and messages just above
// the window (a pre-prepare and a prepare) are buffered — not dropped —
// and delivered deterministically once the stable point lifts the window.
func TestWatermarkEdges(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	// K = 2: the window starts as (0, 4]; seqs 5..6 are bufferable.
	r := newPipeRig(t, selfPos, 2, 8, nil, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)

	blocks, envs := r.chainProposals(5)
	for s := 0; s < 4; s++ {
		acts := r.eng.OnEnvelope(0, envs[s])
		if !containsSeq(prepareSeqs(t, acts), uint64(s+1)) {
			t.Fatalf("slot %d (<= high watermark) must be accepted", s+1)
		}
	}
	// Seq 5 — one past the high watermark — must be buffered silently,
	// along with an early prepare vote for it.
	if acts := r.eng.OnEnvelope(0, envs[4]); len(prepareSeqs(t, acts)) != 0 {
		t.Fatal("slot 5 (> high watermark) must not be accepted yet")
	}
	r.eng.OnEnvelope(0, r.prepareAt(p1, 5, blocks[4].Hash()))

	// Slots 1 and 2 run to execution. Seq 2 is a stable point: executing
	// it makes the window (2, 6], and the drain must replay the buffered
	// slot-5 traffic in the same delivery.
	var stableActs []consensus.Action
	for s := uint64(1); s <= 2; s++ {
		d := blocks[s-1].Hash()
		var acts []consensus.Action
		acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p1, s, d))...)
		acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, s, d))...)
		acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, s, d))...)
		acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, s, d))...)
		if len(r.applyCommits(t, acts)) != 1 {
			t.Fatalf("setup: slot %d did not execute", s)
		}
		stableActs = acts
	}
	if r.eng.LowWater() != 2 {
		t.Fatalf("low water %d after executing slot 2, want 2", r.eng.LowWater())
	}
	if !containsSeq(prepareSeqs(t, stableActs), 5) {
		t.Fatal("buffered slot-5 proposal not delivered when the window lifted")
	}

	// Slot 5 is already prepared IF the buffered early prepare was
	// replayed too (own prepare + the replayed one = 2f). Preparing
	// slots 3 and 4 then cascades the parent gate down the suffix and
	// must release slot 5's commit without any further prepare for it.
	var acts []consensus.Action
	for s := uint64(3); s <= 4; s++ {
		d := blocks[s-1].Hash()
		acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p1, s, d))...)
		acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, s, d))...)
	}
	if !containsSeq(commitSeqs(t, acts), 5) {
		t.Fatal("buffered early prepare was lost: slot 5 never reached prepared")
	}
}

// TestSerialAblationBuffersNextSlot: with MaxInFlight=1 the engine is
// the pre-pipelining scheduler. A backup holds the successor proposal
// back (not rejected) until the current slot executes; a primary with a
// ceiling and a backlog of three ceilings never has a second slot in
// flight, and drains the backlog one round at a time.
func TestSerialAblationBuffersNextSlot(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newPipeRig(t, selfPos, 0, 1, nil, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)

	blocks, envs := r.chainProposals(2)
	if acts := r.eng.OnEnvelope(0, envs[0]); !containsSeq(prepareSeqs(t, acts), 1) {
		t.Fatal("slot 1 must be accepted")
	}
	if acts := r.eng.OnEnvelope(0, envs[1]); len(prepareSeqs(t, acts)) != 0 {
		t.Fatal("MaxInFlight=1 must not run slot 2 concurrently")
	}

	d := blocks[0].Hash()
	var acts []consensus.Action
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p1, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, 1, d))...)
	if len(r.applyCommits(t, acts)) != 1 {
		t.Fatal("slot 1 did not execute")
	}
	// Executing slot 1 opens the window for slot 2: the buffered
	// proposal replays without retransmission.
	if !containsSeq(prepareSeqs(t, acts), 2) {
		t.Fatal("held-back successor proposal not delivered after slot 1 executed")
	}

	const ceiling = 16
	pr := newUnitRigN(t, 4, prim, func(c *pbft.Config) { c.MaxInFlight = 1 })
	pr.eng.Init(0)
	pr.app.SetMaxBatch(ceiling)
	var queue []*pbft.PrePrepare
	step := func(acts []consensus.Action) []consensus.Action {
		t.Helper()
		queue = append(queue, proposalsIn(t, acts)...)
		if used, _ := pr.eng.InFlight(); used > 1 || len(queue) > 1 {
			t.Fatalf("serial primary: %d slots in flight, %d proposals outstanding", used, len(queue))
		}
		return acts
	}
	for k := 0; k <= 3*ceiling; k++ {
		step(pr.request(time.Duration(k)*time.Microsecond, clientTx(k, 1)))
	}
	rounds := 0
	for ; len(queue) > 0; rounds++ {
		pp := queue[0]
		queue = queue[1:]
		at := time.Duration(rounds+1) * time.Millisecond
		for _, vote := range []func(int, uint64, gcrypto.Hash) *consensus.Envelope{pr.prepareAt, pr.commitAt} {
			for _, j := range []int{selfPos, p1, p2} {
				for _, b := range commitsOf(step(pr.eng.OnEnvelope(at, vote(j, pp.Seq, pp.Digest)))) {
					if err := pr.app.Commit(b); err != nil {
						t.Fatal(err)
					}
					step(pr.eng.OnCommitApplied(at))
				}
			}
		}
	}
	if pr.app.PendingTxs() != 0 || pr.app.Chain().Height() != uint64(rounds) || rounds > 4 {
		t.Fatalf("serial primary: %d pending after %d rounds at height %d, want none after at most 4", pr.app.PendingTxs(), rounds, pr.app.Chain().Height())
	}
}

// TestRestartStreamsOutOfOrderCommits is the pipelined WAL-replay
// property: slots 2 and 3 reached commit quorum before the crash while
// slot 1 had not. The recovered replica must neither skip slot 1 nor
// re-execute anything — it re-sends its owed commits bottom-up and
// executes 1, 2, 3 strictly in order once slot 1's quorum completes.
func TestRestartStreamsOutOfOrderCommits(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	wal := newDurableWAL(t)
	r := newPipeRig(t, selfPos, 0, 0, wal, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)

	blocks, envs := r.chainProposals(3)
	for _, env := range envs {
		r.eng.OnEnvelope(0, env)
	}
	for s := uint64(1); s <= 3; s++ {
		d := blocks[s-1].Hash()
		r.eng.OnEnvelope(0, r.prepareAt(p1, s, d))
		r.eng.OnEnvelope(0, r.prepareAt(p2, s, d))
	}
	// Quorum commits for slots 2 and 3 only; slot 1's never arrive.
	for s := uint64(2); s <= 3; s++ {
		d := blocks[s-1].Hash()
		var acts []consensus.Action
		acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, s, d))...)
		acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, s, d))...)
		if len(commitsOf(acts)) != 0 {
			t.Fatalf("slot %d executed past the missing slot 1", s)
		}
	}

	// Crash. The new incarnation owes commits for all three slots and
	// must re-send them ascending from Init.
	r2 := newPipeRig(t, selfPos, 0, 0, wal, pbft.RecoverState(0, wal.Records()))
	initActs := r2.eng.Init(0)
	cs := commitSeqs(t, initActs)
	for s := uint64(1); s <= 3; s++ {
		if !containsSeq(cs, s) {
			t.Fatalf("recovered replica did not re-send commit for slot %d (got %v)", s, cs)
		}
	}
	if r2.eng.NextSeq() != 1 {
		t.Fatalf("recovered NextSeq=%d, want 1 (slot 1 must not be skipped)", r2.eng.NextSeq())
	}

	// The committed-but-unexecuted suffix re-arrives first: still no
	// execution without slot 1.
	var acts []consensus.Action
	for s := uint64(2); s <= 3; s++ {
		d := blocks[s-1].Hash()
		acts = append(acts, r2.eng.OnEnvelope(0, r2.commitAt(p1, s, d))...)
		acts = append(acts, r2.eng.OnEnvelope(0, r2.commitAt(p2, s, d))...)
	}
	if len(commitsOf(acts)) != 0 {
		t.Fatal("recovered replica skipped slot 1")
	}
	// Slot 1's quorum completes: all three execute, in order, once each.
	acts = nil
	acts = append(acts, r2.eng.OnEnvelope(0, r2.commitAt(p1, 1, blocks[0].Hash()))...)
	acts = append(acts, r2.eng.OnEnvelope(0, r2.commitAt(p2, 1, blocks[0].Hash()))...)
	done := r2.applyCommits(t, acts)
	if len(done) != 3 {
		t.Fatalf("expected exactly 3 executions after recovery, got %d", len(done))
	}
	for i, b := range done {
		if b.Header.Height != uint64(i+1) {
			t.Fatalf("execution order broken at position %d: height %d", i, b.Header.Height)
		}
	}
	if r2.eng.NextSeq() != 4 {
		t.Fatalf("NextSeq=%d after recovery, want 4", r2.eng.NextSeq())
	}
}

// TestWALOrdersParentPreparedBeforeChildCommit checks the durable form
// of the parent gate: by the time a commit for slot s+1 leaves the
// replica, the prepared proofs for slots s and s+1 are already on disk —
// so no crash window exists where the replica has voted to commit a
// block whose ancestry it could not re-exhibit in a view change. The
// prepared record is the commit's persist-before-send record: the WAL
// holds no separate commit record, deferred commits included.
func TestWALOrdersParentPreparedBeforeChildCommit(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	wal := newDurableWAL(t)
	r := newPipeRig(t, selfPos, 0, 0, wal, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)

	blocks, envs := r.chainProposals(3)
	for _, env := range envs {
		r.eng.OnEnvelope(0, env)
	}
	preparedOnDisk := func(seq uint64) bool {
		for _, rec := range wal.Records() {
			if rec.Kind == store.WALPrepared && rec.Seq == seq {
				return true
			}
		}
		return false
	}
	// Prepare the suffix first so the gate actually defers, then the
	// head to release the cascade.
	sent := 0
	for _, s := range []uint64{2, 3, 1} {
		d := blocks[s-1].Hash()
		acts := r.eng.OnEnvelope(0, r.prepareAt(p1, s, d))
		acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, s, d))...)
		for _, cs := range commitSeqs(t, acts) {
			sent++
			if !preparedOnDisk(cs) || (cs > 1 && !preparedOnDisk(cs-1)) {
				t.Fatalf("commit for slot %d sent before its and its parent's prepared proofs were persisted", cs)
			}
		}
	}
	if sent != 3 {
		t.Fatalf("%d commits sent, want 3", sent)
	}
	for _, rec := range wal.Records() {
		if rec.Kind != store.WALPrepare && rec.Kind != store.WALPrepared {
			t.Fatalf("a %s record for slot %d: the prepared record already covers the commit", rec.Kind, rec.Seq)
		}
	}
}

// TestProposalOnPrunedParentIsKept: a backup gets the proposal for slot
// 2 before executing slot 1. With K = 1, executing slot 1 makes it the
// stable point and garbage-collects below it, in the same handler that
// replays the buffered proposal for slot 2, while slot 1's CommitBlock
// is not yet applied to the chain. The proposal must be validated on the
// block just executed and accepted; dropped, it left the backup without
// a proposal for its next slot until block sync pulled the blocks.
func TestProposalOnPrunedParentIsKept(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newPipeRig(t, selfPos, 1, 1, nil, nil)
	r.eng.Init(0)
	p1, p2 := otherBackups(prim, selfPos)

	blocks, envs := r.chainProposals(2)
	if acts := r.eng.OnEnvelope(0, envs[0]); !containsSeq(prepareSeqs(t, acts), 1) {
		t.Fatal("slot 1 must be accepted")
	}
	if acts := r.eng.OnEnvelope(0, envs[1]); len(prepareSeqs(t, acts)) != 0 {
		t.Fatal("slot 2 must wait for slot 1")
	}
	d := blocks[0].Hash()
	var acts []consensus.Action
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p1, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.prepareAt(p2, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p1, 1, d))...)
	acts = append(acts, r.eng.OnEnvelope(0, r.commitAt(p2, 1, d))...)
	if r.eng.LowWater() != 1 {
		t.Fatal("executing slot 1 must make it the stable point")
	}
	if len(r.applyCommits(t, acts)) != 1 {
		t.Fatal("slot 1 did not execute")
	}
	if !containsSeq(prepareSeqs(t, acts), 2) || !r.eng.HasProposal(2) {
		t.Fatal("the proposal for slot 2 was dropped when slot 1's stable point pruned its parent")
	}
}
