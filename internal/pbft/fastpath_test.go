package pbft_test

import (
	"testing"

	"gpbft/internal/consensus"
	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

// forged copies env's claimed identity and body under a garbage
// signature: what anyone on the network can produce in a member's name.
func forged(env *consensus.Envelope) *consensus.Envelope {
	return &consensus.Envelope{
		MsgKind: env.MsgKind, From: env.From, FromPub: env.FromPub, Body: env.Body,
		Signature: make([]byte, len(env.Signature)),
	}
}

// fastPathRig is a backup that has accepted the height-1 proposal, with
// an evidence sink attached and running totals of its vote counts.
type fastPathRig struct {
	*unitRig
	verified uint64
	surplus  uint64
	records  []*evidence.Record
	prim     int
	others   []int // the two backups that are not the engine
	digest   gcrypto.Hash
}

func newFastPathRig(t *testing.T) *fastPathRig {
	t.Helper()
	f := &fastPathRig{prim: newUnitRig(t, 0).primaryPos()}
	selfPos := (f.prim + 1) % 4
	f.unitRig = newUnitRigWith(t, selfPos, func(c *pbft.Config) {
		c.EvidenceSink = func(r *evidence.Record) { f.records = append(f.records, r) }
	})
	for i := 0; i < 4; i++ {
		if i != selfPos && i != f.prim {
			f.others = append(f.others, i)
		}
	}
	f.eng.Init(0)
	block, ppEnv := f.proposal(*clientTx(0, 1))
	f.digest = block.Hash()
	if acts := f.eng.OnEnvelope(0, ppEnv); !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("backup did not accept the proposal")
	}
	return f
}

// counts folds the engine's vote counts into the rig's totals, the way
// the era layer does, and returns them.
func (f *fastPathRig) counts() (verified, surplus uint64) {
	c := f.eng.TakeCounts()
	f.verified += c.VotesVerified
	f.surplus += c.VotesSurplus
	return f.verified, f.surplus
}

// TestSurplusVoteDroppedUnverified: once a phase holds its quorum, a
// further vote for the accepted digest is dropped before its seal is
// looked at — shown with a seal that would fail — and leaves no trace.
func TestSurplusVoteDroppedUnverified(t *testing.T) {
	f := newFastPathRig(t)
	// Own prepare + one backup's = 2f: prepared.
	if acts := f.eng.OnEnvelope(0, f.prepareFrom(f.others[0], f.digest)); !hasKind(acts, consensus.KindCommit) {
		t.Fatal("not prepared after 2f prepares")
	}
	verified, _ := f.counts()
	logged, _, seen := f.eng.StoredVotes(consensus.KindPrepare, 1)

	f.eng.OnEnvelope(0, forged(f.prepareFrom(f.others[1], f.digest)))
	if _, got := f.counts(); got != 1 {
		t.Fatalf("surplus prepare: surplus=%d, want 1", got)
	}
	// The genuine late prepare fares the same: it is the position in the
	// phase, not the seal, that decides.
	f.eng.OnEnvelope(0, f.prepareFrom(f.others[1], f.digest))
	got, surplus := f.counts()
	if surplus != 2 {
		t.Fatalf("late genuine prepare: surplus=%d, want 2", surplus)
	}
	if got != verified {
		t.Fatalf("surplus prepares cost %d seal checks", got-verified)
	}
	if l, _, s := f.eng.StoredVotes(consensus.KindPrepare, 1); l != logged || s != seen {
		t.Fatalf("surplus prepare stored: log %d->%d, seen %d->%d", logged, l, seen, s)
	}

	// Commit phase: own + primary + one backup = 2f+1, the block executes.
	var done []consensus.Action
	done = append(done, f.eng.OnEnvelope(0, f.commitFrom(f.prim, f.digest))...)
	done = append(done, f.eng.OnEnvelope(0, f.commitFrom(f.others[0], f.digest))...)
	if len(commitsOf(done)) != 1 {
		t.Fatal("block did not execute on 2f+1 commits")
	}
	verified, _ = f.counts()
	logged, _, seen = f.eng.StoredVotes(consensus.KindCommit, 1)
	f.eng.OnEnvelope(0, forged(f.commitFrom(f.others[1], f.digest)))
	got, surplus = f.counts()
	if surplus != 3 {
		t.Fatalf("surplus commit: surplus=%d, want 3", surplus)
	}
	if got != verified {
		t.Fatalf("surplus commit cost %d seal checks", got-verified)
	}
	if l, _, s := f.eng.StoredVotes(consensus.KindCommit, 1); l != logged || s != seen {
		t.Fatalf("surplus commit stored: log %d->%d, seen %d->%d", logged, l, seen, s)
	}
}

// TestNeededVoteBadSealRejected: a vote the phase still needs is
// verified, and one that fails can occupy neither its claimed sender's
// place in the log, nor the seen-vote index, nor the hold-back buffer.
func TestNeededVoteBadSealRejected(t *testing.T) {
	f := newFastPathRig(t)
	genuine := f.prepareFrom(f.others[0], f.digest)
	logged, _, seen := f.eng.StoredVotes(consensus.KindPrepare, 1)

	if acts := f.eng.OnEnvelope(0, forged(genuine)); len(acts) != 0 {
		t.Fatalf("forged prepare produced actions: %v", acts)
	}
	if l, _, s := f.eng.StoredVotes(consensus.KindPrepare, 1); l != logged || s != seen {
		t.Fatalf("forged prepare stored: log %d->%d, seen %d->%d", logged, l, seen, s)
	}
	if v, s := f.counts(); v != 0 || s != 0 {
		t.Fatalf("forged prepare counted: verified=%d surplus=%d", v, s)
	}
	// The sender's place is still free for the real vote.
	if acts := f.eng.OnEnvelope(0, genuine); !hasKind(acts, consensus.KindCommit) {
		t.Fatal("genuine prepare after a forged one did not complete the phase")
	}
	if got, _ := f.counts(); got != 1 {
		t.Fatalf("verified=%d after one genuine prepare", got)
	}

	// Above the high watermark votes are held back, not judged; the
	// buffer takes only what verifies.
	const far = 2*pbft.DefaultCheckpointInterval + 1
	ahead := consensus.Seal(f.keys[f.others[0]], &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: far, Digest: f.digest}})
	f.eng.OnEnvelope(0, forged(ahead))
	if _, b, _ := f.eng.StoredVotes(consensus.KindCommit, far); b != 0 {
		t.Fatal("forged commit entered the hold-back buffer")
	}
	f.eng.OnEnvelope(0, ahead)
	if _, b, _ := f.eng.StoredVotes(consensus.KindCommit, far); b != 1 {
		t.Fatalf("genuine commit above the window: %d buffered, want 1", b)
	}
}

// TestConflictingVoteAfterPreparedStillConvicts: the surplus drop never
// costs a double-sign proof. A sender on record for a slot has every
// later vote for it verified and cross-checked, however late.
func TestConflictingVoteAfterPreparedStillConvicts(t *testing.T) {
	f := newFastPathRig(t)
	offender := f.others[0]
	if acts := f.eng.OnEnvelope(0, f.prepareFrom(offender, f.digest)); !hasKind(acts, consensus.KindCommit) {
		t.Fatal("not prepared after 2f prepares")
	}
	// The slot is prepared; the offender now signs a different digest.
	f.eng.OnEnvelope(0, f.prepareFrom(offender, gcrypto.Hash{0xbd}))
	if len(f.records) != 1 {
		t.Fatalf("%d evidence records, want 1", len(f.records))
	}
	rec := f.records[0]
	if rec.Kind != evidence.DoubleSign || len(rec.Offenders) != 1 || rec.Offenders[0] != f.keys[offender].Address() {
		t.Fatalf("wrong record: %+v", rec)
	}
	if err := rec.Verify(evidence.VerifyContext{}); err != nil {
		t.Fatalf("record does not verify: %v", err)
	}

	// The other order: a conflicting vote first (noted, not logged), the
	// agreeing one only after the phase is full. It is not surplus — its
	// sender is on record — so the pair is still caught.
	g := newFastPathRig(t)
	offender = g.others[1]
	g.eng.OnEnvelope(0, g.prepareFrom(offender, gcrypto.Hash{0xbd}))
	g.eng.OnEnvelope(0, g.prepareFrom(g.others[0], g.digest)) // prepared
	g.eng.OnEnvelope(0, g.prepareFrom(offender, g.digest))
	if len(g.records) != 1 || g.records[0].Offenders[0] != g.keys[offender].Address() {
		t.Fatalf("late agreeing half of a double-sign lost: %d records", len(g.records))
	}
	if _, surplus := g.counts(); surplus != 0 {
		t.Fatal("vote from a sender on record was treated as surplus")
	}
}

// TestReplayedPrePrepareDoesNotPrepare: a pre-prepare delivered twice —
// an honest retransmission, a network replay, a Byzantine primary — must
// not count the backup's own prepare twice. At n=4 the backup needs 2f=2
// matching prepares: its own and one from another replica.
func TestReplayedPrePrepareDoesNotPrepare(t *testing.T) {
	f := newFastPathRig(t)
	_, ppEnv := f.proposal(*clientTx(0, 1))
	for k := 0; k < 3; k++ {
		if acts := f.eng.OnEnvelope(0, ppEnv); hasKind(acts, consensus.KindCommit) {
			t.Fatal("replayed pre-prepare alone brought the backup to prepared")
		}
	}
	if acts := f.eng.OnEnvelope(0, f.prepareFrom(f.others[0], f.digest)); !hasKind(acts, consensus.KindCommit) {
		t.Fatal("not prepared after 2f prepares")
	}
}

// TestPrimaryPrepareDoesNotCount: the primary's vote is its pre-prepare.
// A prepare it sends on top counts toward no prepared proof, so it must
// not bring a backup to prepared either — at n=4 the backup needs its own
// prepare and one from another BACKUP, or a Byzantine primary prepares a
// replica one honest vote short. Whenever the backup is prepared, the
// proof it would exhibit in a view change verifies.
func TestPrimaryPrepareDoesNotCount(t *testing.T) {
	f := newFastPathRig(t)
	if acts := f.eng.OnEnvelope(0, f.prepareFrom(f.prim, f.digest)); hasKind(acts, consensus.KindCommit) {
		t.Fatal("the primary's pre-prepare, its prepare and the backup's own prepare reached prepared")
	}
	if logged, _, _ := f.eng.StoredVotes(consensus.KindPrepare, 1); logged != 1 {
		t.Fatalf("%d prepares logged, want the backup's own alone", logged)
	}
	if prepared, _ := f.eng.PreparedProof(1); prepared {
		t.Fatal("prepared without 2f prepares from backups")
	}
	if acts := f.eng.OnEnvelope(0, f.prepareFrom(f.others[0], f.digest)); !hasKind(acts, consensus.KindCommit) {
		t.Fatal("not prepared after 2f prepares from backups")
	}
	if prepared, verifies := f.eng.PreparedProof(1); !prepared || !verifies {
		t.Fatalf("prepared=%v but its prepared proof verifies=%v", prepared, verifies)
	}
}

// TestBufferedVoteCountedOnce: a vote above the high watermark is
// verified and counted when it enters the hold-back buffer; its
// redelivery once the window reaches it is neither verified nor counted
// again.
func TestBufferedVoteCountedOnce(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRigWithK(t, selfPos, 2) // high watermark = low + 4
	r.eng.Init(0)
	peer := r.backupPos(selfPos)

	ahead := consensus.Seal(r.keys[peer], &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: 5, Digest: gcrypto.Hash{0x05}}})
	r.eng.OnEnvelope(0, ahead)
	if v := r.eng.TakeCounts().VotesVerified; v != 1 {
		t.Fatalf("buffering the vote counted %d seal checks, want 1", v)
	}
	if _, b, _ := r.eng.StoredVotes(consensus.KindCommit, 5); b != 1 {
		t.Fatalf("%d commits buffered, want 1", b)
	}

	// Two commits reach the checkpoint boundary; two peer checkpoints
	// stabilize it, the window moves up to 6 and the buffer drains.
	var digest gcrypto.Hash
	for seq := uint64(1); seq <= 2; seq++ {
		digest = r.driveCommit(t, seq, prim, selfPos).Hash()
	}
	r.eng.TakeCounts()
	for _, i := range []int{prim, peer} {
		r.eng.OnEnvelope(0, consensus.Seal(r.keys[i], &pbft.Checkpoint{SlotHeader: consensus.SlotHeader{Era: 0, Seq: 2, Digest: digest}}))
	}
	if l, b, _ := r.eng.StoredVotes(consensus.KindCommit, 5); l != 1 || b != 0 {
		t.Fatalf("after the drain: %d logged, %d buffered, want 1 and 0", l, b)
	}
	if c := r.eng.TakeCounts(); c.VotesVerified != 2 || c.VotesSurplus != 0 {
		t.Fatalf("two checkpoints and a redelivery counted verified=%d surplus=%d, want 2 and 0", c.VotesVerified, c.VotesSurplus)
	}
}
