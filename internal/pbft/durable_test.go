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
)

// newDurableRig mirrors newUnitRig but wires a WAL and (optionally)
// recovered durable state into the engine — the restart path.
func newDurableRig(t *testing.T, selfPos int, wal pbft.WAL, durable *pbft.DurableState) *unitRig {
	t.Helper()
	base := newUnitRig(t, selfPos)
	chain, err := ledger.NewChain(base.genesis)
	if err != nil {
		t.Fatal(err)
	}
	app := runtime.NewApp(chain, runtime.NewMempool(0), base.keys[selfPos].Address(), epoch, 8)
	eng, err := pbft.New(pbft.Config{
		Committee: base.com, Key: base.keys[selfPos], App: app,
		Timers: consensus.NewTimerAllocator(), StartHeight: 1,
		ViewChangeTimeout: time.Second,
		WAL:               wal, Durable: durable,
	})
	if err != nil {
		t.Fatal(err)
	}
	base.eng = eng
	base.app = app
	return base
}

// restart rebuilds the rig's engine from nothing but the WAL: fresh
// chain, fresh mempool, state recovered from the records — exactly
// what a process restart sees.
func (r *unitRig) restart(t *testing.T, wal *store.MemWAL) *unitRig {
	t.Helper()
	return newDurableRig(t, r.self, wal, pbft.RecoverState(0, wal.Records()))
}

func TestRecoverStateFromRecords(t *testing.T) {
	var d1, d2 gcrypto.Hash
	d1[0], d2[0] = 1, 2
	recs := []store.WALRecord{
		{Kind: store.WALEra, Era: 0},
		{Kind: store.WALPrepare, Era: 0, View: 0, Seq: 1, Digest: d1},
		{Kind: store.WALCommit, Era: 0, View: 0, Seq: 1, Digest: d1},
		{Kind: store.WALViewChange, Era: 0, View: 1},
		{Kind: store.WALNewView, Era: 0, View: 1},
		{Kind: store.WALPrePrepare, Era: 0, View: 1, Seq: 2, Digest: d2},
		// A stale record from another era must be ignored entirely.
		{Kind: store.WALPrepare, Era: 7, View: 0, Seq: 9, Digest: d2},
	}
	d := pbft.RecoverState(0, recs)
	if d.View != 1 {
		t.Fatalf("recovered view %d, want 1", d.View)
	}
	if len(d.SentPrepares) != 1 || len(d.SentCommits) != 1 || len(d.SentPrePrepares) != 1 {
		t.Fatalf("recovered vote counts: pp=%d p=%d c=%d",
			len(d.SentPrePrepares), len(d.SentPrepares), len(d.SentCommits))
	}
}

func TestRestartedBackupRefusesConflictingPrepare(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	wal := &store.MemWAL{}
	r := newDurableRig(t, selfPos, wal, nil)
	r.eng.Init(0)

	b1, pp1 := r.proposal(*clientTx(0, 1))
	b2, pp2 := r.proposal(*clientTx(1, 2))
	if b1.Hash() == b2.Hash() {
		t.Fatal("test blocks must differ")
	}
	if acts := r.eng.OnEnvelope(0, pp1); !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("first proposal should be accepted")
	}

	// Crash and restart from the WAL alone. The primary (or anyone
	// replaying its equivocation) offers a DIFFERENT block at the same
	// (view, seq): the replica already promised b1 and must stay silent.
	r2 := r.restart(t, wal)
	r2.eng.Init(0)
	if acts := r2.eng.OnEnvelope(0, pp2); hasKind(acts, consensus.KindPrepare) {
		t.Fatal("restarted backup prepared a conflicting proposal — equivocation")
	}
	// The ORIGINAL proposal retransmitted is fine: the re-sent prepare
	// is byte-identical to the one already on the wire.
	if acts := r2.eng.OnEnvelope(0, pp1); !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("restarted backup must still support its original vote")
	}
}

func TestAmnesiaBackupEquivocatesWithoutWAL(t *testing.T) {
	// The regression guard's engine-level core: the SAME schedule as
	// above but with no WAL — the restarted replica happily prepares
	// the conflicting proposal. This is the bug the WAL closes.
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)

	_, pp1 := r.proposal(*clientTx(0, 1))
	_, pp2 := r.proposal(*clientTx(1, 2))
	if acts := r.eng.OnEnvelope(0, pp1); !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("first proposal should be accepted")
	}
	amnesiac := newUnitRig(t, selfPos) // restart with no durable state
	amnesiac.eng.Init(0)
	if acts := amnesiac.eng.OnEnvelope(0, pp2); !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("expected the amnesiac replica to equivocate (documents why the WAL exists)")
	}
}

func TestRestartedPrimaryDoesNotReproposeDifferentBlock(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	wal := &store.MemWAL{}
	r := newDurableRig(t, prim, wal, nil)
	r.eng.Init(0)

	tx := clientTx(0, 1)
	if err := r.app.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if acts := r.eng.OnRequest(0, tx); !hasKind(acts, consensus.KindPrePrepare) {
		t.Fatal("primary must propose")
	}

	// Restart. The mempool is rebuilt empty; a different transaction
	// arrives. BuildBlock now yields a block with a different hash at
	// the same (view, seq) — the recovered sent-proposal ledger must
	// suppress it (liveness comes from the other replicas' view change).
	r2 := r.restart(t, wal)
	r2.eng.Init(time.Second)
	tx2 := clientTx(1, 2)
	if err := r2.app.SubmitTx(tx2); err != nil {
		t.Fatal(err)
	}
	if acts := r2.eng.OnRequest(time.Second, tx2); hasKind(acts, consensus.KindPrePrepare) {
		t.Fatal("restarted primary proposed a second block at the same (view, seq)")
	}
}

func TestRecoveredPreparedInstanceResendsCommit(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	wal := &store.MemWAL{}
	r := newDurableRig(t, selfPos, wal, nil)
	r.eng.Init(0)

	block, ppEnv := r.proposal(*clientTx(0, 1))
	digest := block.Hash()
	r.eng.OnEnvelope(0, ppEnv)
	for i := 0; i < 4; i++ {
		if i != selfPos && i != prim {
			r.eng.OnEnvelope(0, r.prepareFrom(i, digest))
		}
	}

	// The instance reached prepared (commit sent) and the node dies.
	// After restart the replica must re-send the SAME commit from Init
	// and still be able to execute once quorum commits arrive.
	r2 := r.restart(t, wal)
	acts := r2.eng.Init(0)
	if !hasKind(acts, consensus.KindCommit) {
		t.Fatal("restarted replica must re-send its owed commit vote")
	}
	var done []consensus.Action
	for i := 0; i < 4; i++ {
		if i != selfPos {
			done = append(done, r2.eng.OnEnvelope(0, r2.commitFrom(i, digest))...)
			if len(commitsOf(done)) > 0 {
				break
			}
		}
	}
	blocks := commitsOf(done)
	if len(blocks) != 1 || blocks[0].Hash() != digest {
		t.Fatal("recovered prepared instance failed to execute")
	}
	if err := blocks[0].Cert.Verify(digest, blocks[0].Header.Seq, r2.com.Keys(), r2.com.Quorum()); err != nil {
		t.Fatalf("certificate invalid after recovery: %v", err)
	}
	// A log begun by this version holds no commit record, whichever path
	// sent the commit — the prepared transition before the crash, the
	// re-send after it: the kind is only replayed, from older logs
	// (TestRecoverStateFromRecords).
	for _, rec := range wal.Records() {
		if rec.Kind == store.WALCommit {
			t.Fatalf("a commit record appended for slot %d", rec.Seq)
		}
	}
}

func TestViewSurvivesRestart(t *testing.T) {
	probe := newUnitRig(t, 0)
	v1prim := probe.com.IndexOf(probe.com.Primary(1))
	backup := (v1prim + 1) % 4
	wal := &store.MemWAL{}
	r := newDurableRig(t, backup, wal, nil)
	r.eng.Init(0)

	var vcEnvs [][]byte
	for i := 0; i < 4; i++ {
		if i == backup {
			continue
		}
		vc := consensus.Seal(r.keys[i], &pbft.ViewChange{Era: 0, NewView: 1, LastStable: 0})
		vcEnvs = append(vcEnvs, consensus.EncodeEnvelope(vc))
	}
	nv := consensus.Seal(r.keys[v1prim], &pbft.NewView{Era: 0, View: 1, ViewChangeEnvs: vcEnvs})
	r.eng.OnEnvelope(0, nv)
	if r.eng.View() != 1 {
		t.Fatalf("setup: view=%d, want 1", r.eng.View())
	}

	r2 := r.restart(t, wal)
	if r2.eng.View() != 1 {
		t.Fatalf("restarted view=%d, want 1 (position lost)", r2.eng.View())
	}
}

// TestPreparedRecordIsTheCommitPromise: the prepared record is the only
// thing persisted at the prepared transition — it stands for the commit
// vote too. A replica that crashes after persisting it and before its
// commit leaves re-sends the identical commit from the record alone; and
// the record, even with its proof destroyed, refuses a commit for any
// other digest at that (view, seq).
func TestPreparedRecordIsTheCommitPromise(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	wal := &store.MemWAL{}
	r := newDurableRig(t, selfPos, wal, nil)
	r.eng.Init(0)
	peer, _ := otherBackups(prim, selfPos)

	b1, pp1 := r.proposal(*clientTx(0, 1))
	r.eng.OnEnvelope(0, pp1)
	// The crash: the prepared transition ran (record on disk), its commit
	// never reached the network.
	unsent := commitEnvIn(t, r.eng.OnEnvelope(0, r.prepareFrom(peer, b1.Hash())))
	var prepared store.WALRecord
	for _, rec := range wal.Records() {
		switch rec.Kind {
		case store.WALPrepared:
			prepared = rec
		case store.WALCommit:
			t.Fatal("a separate commit record: the prepared transition costs two fsyncs again")
		}
	}
	if prepared.Digest != b1.Hash() {
		t.Fatal("no prepared record for the accepted digest")
	}

	r2 := r.restart(t, wal)
	resent := commitEnvIn(t, r2.eng.Init(0))
	if string(consensus.EncodeEnvelope(resent)) != string(consensus.EncodeEnvelope(unsent)) {
		t.Fatal("the recovered commit differs from the one the crash swallowed")
	}

	// Only the record's header survives (proof destroyed, nothing else in
	// the log): no instance comes back, but the promise does.
	prepared.Data = []byte("damaged")
	r3 := newDurableRig(t, selfPos, &store.MemWAL{}, pbft.RecoverState(0, []store.WALRecord{prepared}))
	if hasKind(r3.eng.Init(0), consensus.KindCommit) {
		t.Fatal("setup: the damaged proof still restored the instance")
	}
	b2, pp2 := r3.proposal(*clientTx(1, 2))
	r3.eng.OnEnvelope(0, pp2)
	if acts := r3.eng.OnEnvelope(0, r3.prepareFrom(peer, b2.Hash())); hasKind(acts, consensus.KindCommit) {
		t.Fatal("committed a second digest at a (view, seq) whose prepared record promised another")
	}
	if prepared, _ := r3.eng.PreparedProof(1); prepared {
		t.Fatal("prepared a second digest against the recovered promise")
	}
}

// commitEnvIn returns the one commit broadcast in acts.
func commitEnvIn(t *testing.T, acts []consensus.Action) *consensus.Envelope {
	t.Helper()
	var out *consensus.Envelope
	for _, a := range acts {
		if bc, ok := a.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindCommit {
			if out != nil {
				t.Fatal("more than one commit broadcast")
			}
			out = bc.Env
		}
	}
	if out == nil {
		t.Fatal("no commit broadcast")
	}
	return out
}
