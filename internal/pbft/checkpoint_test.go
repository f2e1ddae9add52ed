package pbft_test

import (
	"testing"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
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
	pp := consensus.Seal(r.keys[prim], &pbft.PrePrepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: seq, Digest: b.Hash()}, Block: *b})
	r.eng.OnEnvelope(0, pp)
	for i := 0; i < 4; i++ {
		if i == selfPos || i == prim {
			continue
		}
		r.eng.OnEnvelope(0, consensus.Seal(r.keys[i], &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: seq, Digest: b.Hash()}}))
	}
	var committedBlock *types.Block
	for i := 0; i < 4; i++ {
		if i == selfPos {
			continue
		}
		acts := r.eng.OnEnvelope(0, consensus.Seal(r.keys[i], &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: seq, Digest: b.Hash()}}))
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

// TestCheckpointStabilizationGC: after K executions plus matching peer
// checkpoints, the log garbage-collects and the low watermark advances.
func TestCheckpointStabilizationGC(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	// Small checkpoint interval (K = 2) so two commits reach a
	// checkpoint boundary.
	r := newUnitRigWithK(t, selfPos, 2)
	r.eng.Init(0)

	var digests []gcrypto.Hash
	for seq := uint64(1); seq <= 2; seq++ {
		b := r.driveCommit(t, seq, prim, selfPos)
		digests = append(digests, b.Hash())
	}
	if r.eng.LowWater() != 0 {
		t.Fatalf("low water %d before peer checkpoints", r.eng.LowWater())
	}
	// Peer checkpoints at seq 2 with the matching digest stabilize it.
	count := 0
	for i := 0; i < 4 && count < 2; i++ {
		if i == selfPos {
			continue
		}
		r.eng.OnEnvelope(0, consensus.Seal(r.keys[i], &pbft.Checkpoint{SlotHeader: consensus.SlotHeader{Era: 0, Seq: 2, Digest: digests[1]}}))
		count++
	}
	if r.eng.LowWater() != 2 {
		t.Fatalf("low water %d after quorum of checkpoints, want 2", r.eng.LowWater())
	}
}

// TestCheckpointMismatchedDigestIgnored: checkpoints with a digest that
// disagrees with our executed state never stabilize.
func TestCheckpointMismatchedDigestIgnored(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRigWithK(t, selfPos, 2)
	r.eng.Init(0)
	for seq := uint64(1); seq <= 2; seq++ {
		r.driveCommit(t, seq, prim, selfPos)
	}
	bogus := gcrypto.HashBytes([]byte("bogus"))
	for i := 0; i < 4; i++ {
		if i == selfPos {
			continue
		}
		r.eng.OnEnvelope(0, consensus.Seal(r.keys[i], &pbft.Checkpoint{SlotHeader: consensus.SlotHeader{Era: 0, Seq: 2, Digest: bogus}}))
	}
	if r.eng.LowWater() != 0 {
		t.Fatalf("mismatched checkpoints stabilized: low water %d", r.eng.LowWater())
	}
}

// TestCheckpointPruneNeverReproposes: a quorum checkpoint can stabilize
// ABOVE a lagging replica's execution point (the committed blocks are
// still in flight to it). Stabilization prunes the instances and
// sent-vote guards for those slots — so if the replica is the primary,
// a later proposal pass must not rebuild a pruned slot from today's
// pool and sign a second, conflicting pre-prepare for it. Regression
// test for an equivocation found by the gossip chaos schedule.
func TestCheckpointPruneNeverReproposes(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	r := newUnitRigWithK(t, prim, 2)
	r.eng.Init(0)

	// The primary proposes seq 1 from its pool.
	tx1 := clientTx(0, 1)
	if err := r.app.SubmitTx(tx1); err != nil {
		t.Fatal(err)
	}
	acts := r.eng.OnRequest(0, tx1)
	if !hasKind(acts, consensus.KindPrePrepare) {
		t.Fatal("primary did not propose seq 1")
	}

	// The rest of the committee raced ahead: it committed slots 1-2 (the
	// primary's commits never came back to it) and checkpointed at 2.
	ckDigest := gcrypto.HashBytes([]byte("peer-checkpoint-state"))
	for i := 0; i < 4; i++ {
		if i == prim {
			continue
		}
		r.eng.OnEnvelope(0, consensus.Seal(r.keys[i], &pbft.Checkpoint{SlotHeader: consensus.SlotHeader{Era: 0, Seq: 2, Digest: ckDigest}}))
	}
	if r.eng.LowWater() != 2 {
		t.Fatalf("low water %d after quorum of checkpoints, want 2", r.eng.LowWater())
	}

	// New pool contents arrive. The pruned slots are final; re-proposing
	// one would equivocate against the seq-1 pre-prepare already signed.
	tx2 := clientTx(1, 2)
	if err := r.app.SubmitTx(tx2); err != nil {
		t.Fatal(err)
	}
	for _, acts := range [][]consensus.Action{
		r.eng.OnRequest(0, tx2),
		r.eng.OnCommitApplied(0),
	} {
		if hasKind(acts, consensus.KindPrePrepare) {
			t.Fatal("primary re-proposed a slot at or below the stable checkpoint")
		}
	}
}

// newUnitRigWithK builds a rig with a custom checkpoint interval.
func newUnitRigWithK(t *testing.T, selfPos int, k uint64) *unitRig {
	t.Helper()
	base := newUnitRig(t, selfPos)
	eng, err := pbft.New(pbft.Config{
		Committee: base.com, Key: base.keys[selfPos], App: base.app,
		Timers: consensus.NewTimerAllocator(), StartHeight: 1,
		CheckpointInterval: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	base.eng = eng
	return base
}
