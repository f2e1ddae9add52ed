package pbft_test

import (
	"bytes"
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/types"
)

// unitRig drives ONE engine directly with hand-crafted peer envelopes.
type unitRig struct {
	t       *testing.T
	genesis *ledger.Genesis
	com     *consensus.Committee
	keys    []*gcrypto.KeyPair // committee keys, index-aligned with com order
	self    int                // which committee member the engine embodies
	eng     *pbft.Engine
	app     *runtime.App
}

// newUnitRig builds a 4-member committee and an engine for the member
// at sorted position selfPos.
func newUnitRig(t *testing.T, selfPos int) *unitRig {
	t.Helper()
	return newUnitRigWith(t, selfPos, nil)
}

// newUnitRigWith is newUnitRig with a hook to adjust the engine config.
func newUnitRigWith(t *testing.T, selfPos int, adjust func(*pbft.Config)) *unitRig {
	t.Helper()
	return newUnitRigN(t, 4, selfPos, adjust)
}

// newUnitRigN is newUnitRigWith for a committee of n members.
func newUnitRigN(t *testing.T, n, selfPos int, adjust func(*pbft.Config)) *unitRig {
	t.Helper()
	g := &ledger.Genesis{ChainID: "unit", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	raw := make(map[gcrypto.Address]*gcrypto.KeyPair)
	for i := 0; i < n; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		raw[kp.Address()] = kp
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114.18, Lat: 22.3}, geo.CSCPrecision),
		})
	}
	com, err := consensus.NewCommittee(g.Endorsers)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]*gcrypto.KeyPair, n)
	for i := 0; i < n; i++ {
		keys[i] = raw[com.Member(i).Address]
	}
	chain, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	app := runtime.NewApp(chain, runtime.NewMempool(0), keys[selfPos].Address(), epoch, 8)
	cfg := pbft.Config{
		Committee: com, Key: keys[selfPos], App: app,
		Timers: consensus.NewTimerAllocator(), StartHeight: 1,
		ViewChangeTimeout: time.Second,
	}
	if adjust != nil {
		adjust(&cfg)
	}
	eng, err := pbft.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &unitRig{t: t, genesis: g, com: com, keys: keys, self: selfPos, eng: eng, app: app}
}

// primaryPos returns the committee position of view 0's primary.
func (r *unitRig) primaryPos() int {
	return r.com.IndexOf(r.com.Primary(0))
}

// proposal builds a valid height-1 block proposed by view-0's primary.
func (r *unitRig) proposal(txs ...types.Transaction) (*types.Block, *consensus.Envelope) {
	chain, _ := ledger.NewChain(r.genesis)
	b := types.NewBlock(types.BlockHeader{
		Height: 1, Era: 0, View: 0, Seq: 1,
		PrevHash:  chain.Head().Hash(),
		Proposer:  r.com.Primary(0),
		Timestamp: epoch.Add(time.Second),
	}, txs)
	pp := &pbft.PrePrepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: 1, Digest: b.Hash()}, Block: *b}
	return b, consensus.Seal(r.keys[r.primaryPos()], pp)
}

// prepareFrom seals a prepare for digest from committee position i.
func (r *unitRig) prepareFrom(i int, digest gcrypto.Hash) *consensus.Envelope {
	return consensus.Seal(r.keys[i], &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: 1, Digest: digest}})
}

// commitFrom seals a commit from position i.
func (r *unitRig) commitFrom(i int, digest gcrypto.Hash) *consensus.Envelope {
	return consensus.Seal(r.keys[i], &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: 1, Digest: digest}})
}

// hasKind reports whether the actions contain a broadcast of `kind`.
func hasKind(acts []consensus.Action, kind consensus.MsgKind) bool {
	for _, a := range acts {
		switch v := a.(type) {
		case consensus.Broadcast:
			if v.Env.MsgKind == kind {
				return true
			}
		case consensus.Send:
			if v.Env.MsgKind == kind {
				return true
			}
		}
	}
	return false
}

// commits extracts CommitBlock actions.
func commitsOf(acts []consensus.Action) []*types.Block {
	var out []*types.Block
	for _, a := range acts {
		if cb, ok := a.(consensus.CommitBlock); ok {
			out = append(out, cb.Block)
		}
	}
	return out
}

// backupPos returns a committee position that is not the primary and
// not `exclude`.
func (r *unitRig) backupPos(exclude int) int {
	for i := 0; i < 4; i++ {
		if i != r.primaryPos() && i != exclude {
			return i
		}
	}
	panic("unreachable")
}

func TestBackupThreePhaseFlow(t *testing.T) {
	// Engine embodies a backup; feed it pre-prepare, prepares, commits
	// from the three other members and watch it execute.
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)

	tx := clientTx(0, 1)
	block, ppEnv := r.proposal(*tx)
	digest := block.Hash()

	acts := r.eng.OnEnvelope(0, ppEnv)
	if !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("backup must multicast prepare after accepting pre-prepare")
	}
	// Two more prepares (from the two other backups) complete 2f=2
	// prepares plus the pre-prepare.
	var all []consensus.Action
	_, missesBefore := types.SigCacheStats()
	for i := 0; i < 4; i++ {
		if i == selfPos || i == prim {
			continue
		}
		all = append(all, r.eng.OnEnvelope(0, r.prepareFrom(i, digest))...)
	}
	if !hasKind(all, consensus.KindCommit) {
		t.Fatal("backup must multicast commit once prepared")
	}
	// The commit is its slot header and nothing else — no signature of
	// its own beside the envelope's — and the replica's own vote is
	// tallied without a signature check.
	for _, a := range all {
		if bc, ok := a.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindCommit {
			want := codec.Encode(&consensus.SlotHeader{Era: 0, View: 0, Seq: 1, Digest: digest})
			if !bytes.Equal(bc.Env.Body, want) {
				t.Fatalf("commit body is %d bytes, want the %d-byte slot header", len(bc.Env.Body), len(want))
			}
		}
	}
	if _, misses := types.SigCacheStats(); misses != missesBefore {
		t.Fatalf("the replica verified its own commit vote (%d vote-cache misses)", misses-missesBefore)
	}
	// Commits: own (implicit) + two others = 3 = quorum.
	var done []consensus.Action
	for i := 0; i < 4; i++ {
		if i == selfPos {
			continue
		}
		done = append(done, r.eng.OnEnvelope(0, r.commitFrom(i, digest))...)
		if len(commitsOf(done)) > 0 {
			break
		}
	}
	blocks := commitsOf(done)
	if len(blocks) != 1 || blocks[0].Hash() != digest {
		t.Fatal("backup did not execute the committed block")
	}
	if blocks[0].Cert == nil {
		t.Fatal("executed block missing certificate")
	}
	// One ed25519 check per stored vote, as before the commit's seal was
	// also its certificate vote: one prepare and two commits verified, the
	// second prepare surplus.
	if c := r.eng.TakeCounts(); c.VotesVerified != 3 || c.VotesSurplus != 1 {
		t.Fatalf("verified %d votes and dropped %d as surplus, want 3 and 1", c.VotesVerified, c.VotesSurplus)
	}
	// The certificate is the seals of the counted commits, and a node
	// that saw none of them (sync, a late joiner) verifies it cold.
	defer types.SetSigCache(types.SetSigCache(false))
	if err := blocks[0].Cert.Verify(digest, 1, r.com.Keys(), r.com.Quorum()); err != nil {
		t.Fatalf("certificate invalid with the signature cache off: %v", err)
	}
	if r.eng.NextSeq() != 2 {
		t.Fatalf("NextSeq=%d", r.eng.NextSeq())
	}
}

func TestPrePrepareRejections(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)

	tx := clientTx(0, 1)
	block, _ := r.proposal(*tx)

	// Pre-prepare from a non-primary member is ignored.
	bad := consensus.Seal(r.keys[r.backupPos(selfPos)], &pbft.PrePrepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: 1, Digest: block.Hash()}, Block: *block})
	if acts := r.eng.OnEnvelope(0, bad); hasKind(acts, consensus.KindPrepare) {
		t.Fatal("pre-prepare from non-primary must be ignored")
	}

	// Digest mismatch is ignored.
	badDigest := consensus.Seal(r.keys[prim], &pbft.PrePrepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: 1, Digest: gcrypto.HashBytes([]byte("wrong"))}, Block: *block})
	if acts := r.eng.OnEnvelope(0, badDigest); hasKind(acts, consensus.KindPrepare) {
		t.Fatal("digest mismatch must be ignored")
	}

	// Wrong era is ignored.
	wrongEra := consensus.Seal(r.keys[prim], &pbft.PrePrepare{SlotHeader: consensus.SlotHeader{Era: 9, View: 0, Seq: 1, Digest: block.Hash()}, Block: *block})
	if acts := r.eng.OnEnvelope(0, wrongEra); hasKind(acts, consensus.KindPrepare) {
		t.Fatal("wrong era must be ignored")
	}

	// Seq far beyond the watermark window is ignored.
	far := *block
	far.Header.Seq = 1000
	farEnv := consensus.Seal(r.keys[prim], &pbft.PrePrepare{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: 1000, Digest: far.Hash()}, Block: far})
	if acts := r.eng.OnEnvelope(0, farEnv); hasKind(acts, consensus.KindPrepare) {
		t.Fatal("out-of-window seq must be ignored")
	}
}

func TestEquivocationSecondProposalIgnored(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)

	b1, pp1 := r.proposal(*clientTx(0, 1))
	b2, pp2 := r.proposal(*clientTx(1, 2))
	if b1.Hash() == b2.Hash() {
		t.Fatal("test blocks must differ")
	}
	if acts := r.eng.OnEnvelope(0, pp1); !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("first proposal should be accepted")
	}
	// The equivocating second proposal for the same (view, seq) must
	// not produce a second prepare.
	if acts := r.eng.OnEnvelope(0, pp2); hasKind(acts, consensus.KindPrepare) {
		t.Fatal("equivocating proposal must be refused")
	}
}

// TestCertificateFromCommitEnvelopes: a certificate is the seals of real
// commit envelopes and verifies cold; it is refused when anything the
// seals signed is off — the sequence number (the block header's), the
// view, the voter's membership, a voter counted twice — and when a
// PREPARE's seal for the very same (era, view, seq, digest) is offered as
// a vote: the message kind is inside the signed bytes.
func TestCertificateFromCommitEnvelopes(t *testing.T) {
	defer types.SetSigCache(types.SetSigCache(false))
	r := newUnitRig(t, 0)
	digest := gcrypto.HashBytes([]byte("block"))
	slot := consensus.SlotHeader{Era: 2, View: 1, Seq: 1000, Digest: digest}
	vote := func(kp *gcrypto.KeyPair, p consensus.Payload) types.Vote {
		env := consensus.Seal(kp, p)
		return types.Vote{Endorser: env.From, Signature: env.Signature}
	}
	cert := func(view uint64, votes ...types.Vote) *types.Certificate {
		return &types.Certificate{BlockHash: digest, Era: 2, View: view, Votes: votes}
	}
	commits := make([]types.Vote, 3)
	for i := range commits {
		commits[i] = vote(r.keys[i], &pbft.Commit{SlotHeader: slot})
	}
	if err := cert(1, commits...).Verify(digest, 1000, r.com.Keys(), 3); err != nil {
		t.Fatalf("certificate of three commit seals refused: %v", err)
	}
	outsider := vote(gcrypto.DeterministicKeyPair(99), &pbft.Commit{SlotHeader: slot})
	prepare := vote(r.keys[2], &pbft.Prepare{SlotHeader: slot})
	for name, c := range map[string]struct {
		cert *types.Certificate
		seq  uint64
	}{
		"wrong seq":      {cert(1, commits...), 1001},
		"wrong view":     {cert(0, commits...), 1000},
		"non-member":     {cert(1, commits[0], commits[1], outsider), 1000},
		"duplicate":      {cert(1, commits[0], commits[1], commits[1]), 1000},
		"prepare's seal": {cert(1, commits[0], commits[1], prepare), 1000},
	} {
		if err := c.cert.Verify(digest, c.seq, r.com.Keys(), 3); err == nil {
			t.Errorf("%s: certificate accepted", name)
		}
	}
}

func TestDuplicateMessagesIdempotent(t *testing.T) {
	// The engine embodies the PRIMARY: its own pre-prepare stands in
	// for its prepare, so it needs 2f = 2 prepares from DISTINCT
	// backups. One backup repeating its prepare five times must not
	// suffice.
	prim := newUnitRig(t, 0).primaryPos()
	r := newUnitRig(t, prim)
	r.eng.Init(0)

	tx := clientTx(0, 1)
	if err := r.app.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	acts := r.eng.OnRequest(0, tx)
	if !hasKind(acts, consensus.KindPrePrepare) {
		t.Fatal("primary must propose")
	}
	// Recover the digest of its own proposal.
	var digest gcrypto.Hash
	for _, a := range acts {
		if bc, ok := a.(consensus.Broadcast); ok && bc.Env.MsgKind == consensus.KindPrePrepare {
			var pp pbft.PrePrepare
			if err := consensus.Open(bc.Env, consensus.KindPrePrepare, &pp); err != nil {
				t.Fatal(err)
			}
			digest = pp.Digest
		}
	}
	other := r.backupPos(prim)
	var dupActs []consensus.Action
	for k := 0; k < 5; k++ {
		dupActs = append(dupActs, r.eng.OnEnvelope(0, r.prepareFrom(other, digest))...)
	}
	if hasKind(dupActs, consensus.KindCommit) {
		t.Fatal("duplicate prepares from one backup must not reach prepared state")
	}
	// A second distinct backup completes it.
	other2 := -1
	for i := 0; i < 4; i++ {
		if i != prim && i != other {
			other2 = i
			break
		}
	}
	if acts := r.eng.OnEnvelope(0, r.prepareFrom(other2, digest)); !hasKind(acts, consensus.KindCommit) {
		t.Fatal("two distinct prepares must reach prepared state")
	}
}

func TestProgressTimerStartsViewChange(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)

	// A request arrives (outstanding work), arming the progress timer.
	// The runtime adds it to the pool before informing the engine.
	tx := clientTx(0, 1)
	if err := r.app.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	acts := r.eng.OnRequest(0, tx)
	var timerID consensus.TimerID
	for _, a := range acts {
		if st, ok := a.(consensus.StartTimer); ok {
			timerID = st.ID
		}
	}
	if timerID == 0 {
		t.Fatal("progress timer not armed on outstanding work")
	}
	// The timer fires with no progress: the backup must broadcast a
	// view change for view 1.
	vcActs := r.eng.OnTimer(time.Second, timerID)
	if !hasKind(vcActs, consensus.KindViewChange) {
		t.Fatal("progress timeout must start a view change")
	}
	if !r.eng.InViewChange() {
		t.Fatal("engine must be in view change")
	}
}

func TestNewViewFromQuorumOfViewChanges(t *testing.T) {
	// The engine embodies view 1's primary; feed it 2f+1 view changes
	// and it must broadcast a NewView and enter view 1.
	probe := newUnitRig(t, 0)
	v1prim := probe.com.IndexOf(probe.com.Primary(1))
	r := newUnitRig(t, v1prim)
	r.eng.Init(0)

	var acts []consensus.Action
	for i := 0; i < 4; i++ {
		if i == v1prim {
			continue
		}
		vc := consensus.Seal(r.keys[i], &pbft.ViewChange{Era: 0, NewView: 1, LastStable: 0})
		acts = append(acts, r.eng.OnEnvelope(0, vc)...)
	}
	if !hasKind(acts, consensus.KindNewView) {
		t.Fatal("new primary must broadcast NewView at 2f+1 view changes")
	}
	if r.eng.View() != 1 {
		t.Fatalf("view=%d, want 1", r.eng.View())
	}
	if r.eng.InViewChange() {
		t.Fatal("view change must be complete")
	}
	if r.eng.CompletedViewChanges() != 1 {
		t.Fatal("completed view change not counted")
	}
}

func TestBackupAdoptsNewView(t *testing.T) {
	probe := newUnitRig(t, 0)
	v1prim := probe.com.IndexOf(probe.com.Primary(1))
	backup := (v1prim + 1) % 4
	r := newUnitRig(t, backup)
	r.eng.Init(0)

	// Assemble a NewView with 2f+1 view-change envelopes.
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
		t.Fatalf("backup view=%d, want 1", r.eng.View())
	}

	// A NewView from the WRONG sender must be ignored.
	r2 := newUnitRig(t, backup)
	r2.eng.Init(0)
	wrong := consensus.Seal(r2.keys[backup], &pbft.NewView{Era: 0, View: 1, ViewChangeEnvs: vcEnvs})
	r2.eng.OnEnvelope(0, wrong)
	if r2.eng.View() != 0 {
		t.Fatal("NewView from non-primary must be ignored")
	}

	// A NewView without quorum must be ignored.
	r3 := newUnitRig(t, backup)
	r3.eng.Init(0)
	short := consensus.Seal(r3.keys[v1prim], &pbft.NewView{Era: 0, View: 1, ViewChangeEnvs: vcEnvs[:1]})
	r3.eng.OnEnvelope(0, short)
	if r3.eng.View() != 0 {
		t.Fatal("NewView without quorum must be ignored")
	}
}

// TestStaleViewChangeGetsNewViewCert covers the crash-restart rejoin
// path: a replica that restarts at view 0 while the committee moved on
// petitions for views everyone else has already left, and those
// petitions are silently stale. The fix is that any replica holding
// the NewView certificate of its current view retransmits it in reply
// — the revenant verifies the 2f+1 certificate and jumps straight to
// the committee's view.
func TestStaleViewChangeGetsNewViewCert(t *testing.T) {
	probe := newUnitRig(t, 0)
	v1prim := probe.com.IndexOf(probe.com.Primary(1))
	r := newUnitRig(t, v1prim)
	r.eng.Init(0)

	// Drive the engine into view 1 as its primary via 2f+1 view changes.
	for i := 0; i < 4; i++ {
		if i == v1prim {
			continue
		}
		vc := consensus.Seal(r.keys[i], &pbft.ViewChange{Era: 0, NewView: 1, LastStable: 0})
		r.eng.OnEnvelope(0, vc)
	}
	if r.eng.View() != 1 {
		t.Fatalf("setup: view=%d, want 1", r.eng.View())
	}

	// A revenant still at view 0 petitions for view 1 again — stale from
	// this replica's perspective. The reply must be the NewView cert,
	// addressed to the petitioner.
	reven := (v1prim + 1) % 4
	stale := consensus.Seal(r.keys[reven], &pbft.ViewChange{Era: 0, NewView: 1, LastStable: 0})
	var cert *consensus.Envelope
	for _, a := range r.eng.OnEnvelope(time.Second, stale) {
		if s, ok := a.(consensus.Send); ok && s.Env.MsgKind == consensus.KindNewView && s.To == r.keys[reven].Address() {
			cert = s.Env
		}
	}
	if cert == nil {
		t.Fatal("stale view change must be answered with the current NewView certificate")
	}

	// The revenant verifies the certificate and joins view 1 directly.
	rv := newUnitRig(t, reven)
	rv.eng.Init(0)
	rv.eng.OnEnvelope(time.Second, cert)
	if rv.eng.View() != 1 {
		t.Fatalf("revenant view=%d after certificate, want 1", rv.eng.View())
	}

	// A backup that adopted the view through the certificate serves it
	// onward too — rejoin does not depend on reaching the primary.
	stale2 := consensus.Seal(rv.keys[v1prim], &pbft.ViewChange{Era: 0, NewView: 1, LastStable: 0})
	if acts := rv.eng.OnEnvelope(2*time.Second, stale2); !hasKind(acts, consensus.KindNewView) {
		t.Fatal("certificate-adopting backup must also answer stale view changes")
	}
}

func TestJoinRuleFPlusOne(t *testing.T) {
	// f+1 = 2 view changes for a higher view drag a quiet backup in.
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)

	i1 := r.backupPos(selfPos)
	var acts []consensus.Action
	vc1 := consensus.Seal(r.keys[i1], &pbft.ViewChange{Era: 0, NewView: 2, LastStable: 0})
	acts = append(acts, r.eng.OnEnvelope(0, vc1)...)
	if r.eng.InViewChange() {
		t.Fatal("one view change must not trigger the join rule")
	}
	vc2 := consensus.Seal(r.keys[prim], &pbft.ViewChange{Era: 0, NewView: 2, LastStable: 0})
	acts = append(acts, r.eng.OnEnvelope(0, vc2)...)
	if !r.eng.InViewChange() {
		t.Fatal("f+1 view changes must trigger the join rule")
	}
	if !hasKind(acts, consensus.KindViewChange) {
		t.Fatal("joining must broadcast our own view change")
	}
}

func TestAdvanceToSkipsSyncedHeights(t *testing.T) {
	r := newUnitRig(t, 0)
	r.eng.Init(0)
	r.eng.AdvanceTo(0, 5)
	if r.eng.NextSeq() != 6 {
		t.Fatalf("NextSeq=%d after AdvanceTo(5)", r.eng.NextSeq())
	}
	if r.eng.LowWater() != 5 {
		t.Fatalf("LowWater=%d", r.eng.LowWater())
	}
	// Advancing backwards is a no-op.
	r.eng.AdvanceTo(0, 2)
	if r.eng.NextSeq() != 6 {
		t.Fatal("AdvanceTo must never regress")
	}
}

// TestRequestGoesToThePrimaryByItsOwnSend: a backup relays a request it
// was handed with one send to the view's primary and one broadcast to
// the other members — the broadcast may travel by epidemic relay, which
// can miss a member, and the primary is the member that must not be
// missed. The primary itself broadcasts to everyone else.
func TestRequestGoesToThePrimaryByItsOwnSend(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	for _, self := range []int{prim, (prim + 1) % 4} {
		r := newUnitRig(t, self)
		r.eng.Init(0)
		tx := clientTx(0, 1)
		if err := r.app.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		got := map[gcrypto.Address]int{}
		sends := 0
		for _, a := range r.eng.OnRequest(0, tx) {
			switch v := a.(type) {
			case consensus.Send:
				if v.Env.MsgKind == consensus.KindRequest {
					sends++
					if v.To != r.com.Primary(0) {
						t.Fatalf("position %d sent its request to %x, not the primary", self, v.To[:4])
					}
					got[v.To]++
				}
			case consensus.Broadcast:
				if v.Env.MsgKind == consensus.KindRequest {
					for _, to := range v.To {
						got[to]++
					}
				}
			}
		}
		if want := map[bool]int{true: 0, false: 1}[self == prim]; sends != want {
			t.Fatalf("position %d: %d direct sends, want %d", self, sends, want)
		}
		for i := 0; i < 4; i++ {
			addr := r.com.Member(i).Address
			if want := map[bool]int{true: 0, false: 1}[i == self]; got[addr] != want {
				t.Fatalf("position %d: member %d receives %d copies, want %d", self, i, got[addr], want)
			}
		}
	}
}
