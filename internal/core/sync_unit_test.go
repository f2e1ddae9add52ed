package core_test

import (
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

// syncActions extracts the (to, kind) pairs of Send actions.
func sendKinds(acts []consensus.Action) []consensus.MsgKind {
	var out []consensus.MsgKind
	for _, a := range acts {
		if s, ok := a.(consensus.Send); ok {
			out = append(out, s.Env.MsgKind)
		}
	}
	return out
}

// grownCluster builds a 5-node cluster (4 endorsers + 1 observer) with
// some committed blocks, and returns it after quiescence.
func grownCluster(t *testing.T, blocks int) *gpbft.Cluster {
	t.Helper()
	o := fastOpts(5)
	o.GenesisEndorsers = 4
	o.MaxEndorsers = 8
	o.BatchSize = 1
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < blocks; k++ {
		c.SubmitNodeTx(time.Duration(10+k*30)*time.Millisecond, k%4, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(time.Minute)
	if got := c.Node(0).App.Chain().Height(); got < uint64(blocks) {
		t.Fatalf("setup: height %d < %d", got, blocks)
	}
	return c
}

// TestServeSyncBounds drives an endorser engine's sync-serving path
// directly with crafted requests.
func TestServeSyncBounds(t *testing.T) {
	c := grownCluster(t, 10)
	endorser := c.CoreEngine(0)
	requester := gcrypto.DeterministicKeyPair(4) // the observer's key

	ask := func(from uint64) []consensus.Action {
		req := consensus.Seal(requester, &core.SyncRequest{FromHeight: from})
		return endorser.OnEnvelope(0, req)
	}
	// A normal request is answered with one block-sync response.
	acts := ask(1)
	kinds := sendKinds(acts)
	if len(kinds) != 1 || kinds[0] != consensus.KindBlockSync {
		t.Fatalf("expected one sync response, got %v", kinds)
	}
	// FromHeight 0 is normalized to 1 (genesis is never shipped).
	if got := sendKinds(ask(0)); len(got) != 1 {
		t.Fatalf("from=0: %v", got)
	}
	// A request beyond the head gets nothing.
	if got := sendKinds(ask(10_000)); len(got) != 0 {
		t.Fatalf("beyond head: %v", got)
	}
}

// TestAnnounceTriggersSingleSync: repeated announcements for the same
// height must not spam sync requests.
func TestAnnounceTriggersSingleSync(t *testing.T) {
	c := grownCluster(t, 6)
	observer := c.CoreEngine(4)
	endorserKey := c.Node(0).Key

	h := c.Node(0).App.Chain().Height()
	ann := consensus.Seal(endorserKey, &core.EraAnnounce{NewEra: 0, Height: h})
	first := sendKinds(observer.OnEnvelope(0, ann))
	if len(first) != 1 || first[0] != consensus.KindBlockSync {
		t.Fatalf("first announce: %v", first)
	}
	// Duplicate announce while a sync is in flight: no second request.
	if again := sendKinds(observer.OnEnvelope(0, ann)); len(again) != 0 {
		t.Fatalf("duplicate announce spawned requests: %v", again)
	}
	// An announce for a HIGHER height re-requests.
	ann2 := consensus.Seal(endorserKey, &core.EraAnnounce{NewEra: 0, Height: h + 5})
	if more := sendKinds(observer.OnEnvelope(0, ann2)); len(more) != 1 {
		t.Fatalf("higher announce: %v", more)
	}
}

// syncRequests counts the block-sync sends among acts.
func syncRequests(acts []consensus.Action) int {
	n := 0
	for _, k := range sendKinds(acts) {
		if k == consensus.KindBlockSync {
			n++
		}
	}
	return n
}

// commitVote seals a peer's commit for seq in era 0, view 0.
func commitVote(peer *gcrypto.KeyPair, seq uint64) *consensus.Envelope {
	return consensus.Seal(peer, &pbft.Commit{SlotHeader: consensus.SlotHeader{Era: 0, View: 0, Seq: seq, Digest: gcrypto.Hash{0xab}}})
}

// TestLaggingCommitTriggersSync: an endorser that overhears a commit
// vote beyond the pipelining window above its own head has provably
// missed blocks (a node restarted mid-era sees exactly this) and must
// pull them right away instead of waiting for the next era announcement.
func TestLaggingCommitTriggersSync(t *testing.T) {
	c := grownCluster(t, 4)
	endorser := c.CoreEngine(0)
	peer := c.Node(1).Key
	h := c.Node(0).App.Chain().Height()
	_, depth := endorser.InFlight()
	window := uint64(depth)
	commitAt := func(seq uint64) []consensus.Action {
		return endorser.OnEnvelope(0, commitVote(peer, seq))
	}

	// A commit for the very next height is normal consensus traffic.
	if n := syncRequests(commitAt(h + 1)); n != 0 {
		t.Fatalf("commit for next height spawned %d sync requests", n)
	}
	// A commit beyond the window reveals the gap: exactly one pull.
	if n := syncRequests(commitAt(h + window + 1)); n != 1 {
		t.Fatalf("lagging commit spawned %d sync requests, want 1", n)
	}
	// While that pull is in flight, an equal-or-lower commit is quiet.
	if n := syncRequests(commitAt(h + window + 1)); n != 0 {
		t.Fatalf("duplicate lagging commit spawned %d requests", n)
	}
	// The head moving past the target re-arms the sync (covers a lost
	// response: the next commit re-requests).
	if n := syncRequests(commitAt(h + window + 4)); n != 1 {
		t.Fatalf("higher lagging commit spawned %d requests, want 1", n)
	}
	if got := endorser.SyncStats().LagPulls; got != 2 {
		t.Fatalf("LagPulls=%d, want 2", got)
	}
}

// TestSyncRetryRotatesPeers: a lag pull nobody answers is re-issued
// each time the retry timer fires, always to a committee member other
// than the node itself, and any three successive retries ask the three
// other members; after core.MaxSyncRetries re-issues the pull goes quiet
// until the next trigger.
func TestSyncRetryRotatesPeers(t *testing.T) {
	c := grownCluster(t, 4)
	endorser := c.CoreEngine(0)
	self := c.Node(0).Key.Address()
	members := map[gcrypto.Address]bool{}
	for i := 0; i < 4; i++ {
		members[c.Node(i).Key.Address()] = true
	}
	h := c.Node(0).App.Chain().Height()
	_, depth := endorser.InFlight()

	// pull returns the peer acts send a block-sync request to and the
	// timer they start, if any.
	pull := func(acts []consensus.Action) (to gcrypto.Address, sent int, timer consensus.TimerID) {
		for _, a := range acts {
			switch a := a.(type) {
			case consensus.Send:
				if a.Env.MsgKind == consensus.KindBlockSync {
					to, sent = a.To, sent+1
				}
			case consensus.StartTimer:
				timer = a.ID
			}
		}
		return to, sent, timer
	}

	first := c.Node(1).Key
	to, sent, timer := pull(endorser.OnEnvelope(0, commitVote(first, h+uint64(depth)+1)))
	if sent != 1 || to != first.Address() || timer == 0 {
		t.Fatalf("lag pull: %d requests to %x, retry timer %d", sent, to, timer)
	}
	now := consensus.Time(0)
	var asked []gcrypto.Address
	for retry := 1; retry <= core.MaxSyncRetries; retry++ {
		now += 10 * time.Second // past any backoff
		to, sent, timer = pull(endorser.OnTimer(now, timer))
		if sent != 1 || timer == 0 {
			t.Fatalf("retry %d: %d requests, retry timer %d", retry, sent, timer)
		}
		if to == self || !members[to] {
			t.Fatalf("retry %d went to %x, not another committee member", retry, to)
		}
		for _, p := range asked[max(0, len(asked)-2):] {
			if p == to {
				t.Fatalf("retry %d asked %x again within three retries (asked %x)", retry, to, asked)
			}
		}
		asked = append(asked, to)
	}
	if acts := endorser.OnTimer(now+10*time.Second, timer); len(acts) != 0 {
		t.Fatalf("after %d retries the pull still acts: %v", core.MaxSyncRetries, acts)
	}
	if got := endorser.SyncStats().Retries; got != core.MaxSyncRetries {
		t.Fatalf("Retries=%d, want %d", got, core.MaxSyncRetries)
	}
}

// lagTimers returns the timers acts start with the lag-check delay (the
// sync retry base, which no other timer in these tests uses).
func lagTimers(acts []consensus.Action) []consensus.TimerID {
	var ids []consensus.TimerID
	for _, a := range acts {
		if st, ok := a.(consensus.StartTimer); ok && st.Delay == 500*time.Millisecond {
			ids = append(ids, st.ID)
		}
	}
	return ids
}

// TestInWindowCommitPullsNothing: the committee pipelines MaxInFlight
// slots, so commits for the whole window above an endorser's head are
// ordinary traffic for blocks it is about to commit itself — whether it
// already holds its next slot's proposal or that proposal is still on
// its way. A missing proposal only raises a doubt that is settled one
// grace period later, and by then the proposal has arrived.
func TestInWindowCommitPullsNothing(t *testing.T) {
	c := grownCluster(t, 4)
	prim := 0
	for !c.CoreEngine(prim).Inner().IsPrimary() {
		prim++
	}
	backup := c.CoreEngine((prim + 1) % 4)
	peer := c.Node((prim + 2) % 4).Key
	h := c.Node(prim).App.Chain().Height()
	_, depth := c.CoreEngine(prim).InFlight()
	window := uint64(depth)
	inWindow := func(eng *core.Engine, when string) (timers []consensus.TimerID) {
		t.Helper()
		for seq := h + 2; seq <= h+window; seq++ {
			acts := eng.OnEnvelope(c.Now(), commitVote(peer, seq))
			if n := syncRequests(acts); n != 0 {
				t.Fatalf("%s: in-window commit for head+%d spawned %d sync requests", when, seq-h, n)
			}
			timers = append(timers, lagTimers(acts)...)
		}
		return timers
	}

	// The primary proposes head+1 and so holds its next slot's proposal:
	// no pull and no doubt.
	tx := c.NewNodeTx(prim, c.Now(), []byte("window"), 1)
	if err := c.Node(prim).App.SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	var ppEnv, reqEnv *consensus.Envelope
	for _, a := range c.CoreEngine(prim).OnRequest(c.Now(), tx) {
		if bc, ok := a.(consensus.Broadcast); ok {
			switch bc.Env.MsgKind {
			case consensus.KindPrePrepare:
				ppEnv = bc.Env
			case consensus.KindRequest:
				reqEnv = bc.Env
			}
		}
	}
	if ppEnv == nil || reqEnv == nil {
		t.Fatal("setup: the primary did not relay and propose")
	}
	if timers := inWindow(c.CoreEngine(prim), "proposal held"); len(timers) != 0 {
		t.Fatalf("proposal held: %d lag checks armed", len(timers))
	}

	// The backup holds no proposal for head+1; it may simply be in
	// flight. One lag check is armed for the whole burst, nothing pulled.
	timers := inWindow(backup, "proposal not yet seen")
	if len(timers) != 1 {
		t.Fatalf("proposal not yet seen: %d lag checks armed, want 1", len(timers))
	}
	// The request and the proposal arrive; the check finds the doubt
	// resolved.
	backup.OnEnvelope(c.Now(), reqEnv)
	backup.OnEnvelope(c.Now(), ppEnv)
	if n := syncRequests(backup.OnTimer(c.Now(), timers[0])); n != 0 {
		t.Fatalf("lag check after the proposal arrived spawned %d sync requests", n)
	}
	if got := backup.SyncStats().LagPulls; got != 0 {
		t.Fatalf("LagPulls=%d, want 0", got)
	}
}

// TestMissedProposalThenIdlePulls: a node that missed fewer than
// MaxInFlight slots (restarted, or cut off for a moment) and then sees
// only the tail of the committee's commits before the load stops never
// gets a commit beyond its window and never a newer proposal. The lag
// check is what catches it: one grace period after the first such
// commit its next slot's proposal is still missing, and it pulls.
func TestMissedProposalThenIdlePulls(t *testing.T) {
	c := grownCluster(t, 4)
	endorser := c.CoreEngine(0)
	peer := c.Node(1).Key
	h := c.Node(0).App.Chain().Height()

	acts := endorser.OnEnvelope(c.Now(), commitVote(peer, h+2))
	timers := lagTimers(acts)
	if syncRequests(acts) != 0 || len(timers) != 1 {
		t.Fatalf("in-window commit: %d sync requests, %d lag checks, want 0 and 1", syncRequests(acts), len(timers))
	}
	// More of the tail arrives while the check is pending: still quiet.
	if acts := endorser.OnEnvelope(c.Now(), commitVote(peer, h+3)); syncRequests(acts) != 0 || len(lagTimers(acts)) != 0 {
		t.Fatal("a second in-window commit pulled or armed a second lag check")
	}
	// Then nothing. The grace period runs out with head+1 still missing.
	acts = endorser.OnTimer(c.Now(), timers[0])
	if n := syncRequests(acts); n != 1 {
		t.Fatalf("lag check on a node still missing its next proposal spawned %d sync requests, want 1", n)
	}
	for _, a := range acts {
		if s, ok := a.(consensus.Send); ok && s.To != peer.Address() {
			t.Fatalf("pull sent to %s, want the peer whose commit raised the doubt", s.To.Short())
		}
	}
	if got := endorser.SyncStats().LagPulls; got != 1 {
		t.Fatalf("LagPulls=%d, want 1", got)
	}
}

// TestSyncResponseRejectsUncertifiedBlocks: a sync response whose
// blocks lack commit certificates must not advance the observer chain.
func TestSyncResponseRejectsUncertifiedBlocks(t *testing.T) {
	c := grownCluster(t, 4)
	observer := c.CoreEngine(4)
	endorserKey := c.Node(0).Key
	chain0 := c.Node(0).App.Chain()

	// Strip certificates from copies of the real blocks.
	var resp core.SyncResponse
	for h := uint64(1); h <= chain0.Height(); h++ {
		b, err := chain0.BlockAt(h)
		if err != nil {
			t.Fatal(err)
		}
		naked := *b
		naked.Cert = nil
		resp.Blocks = append(resp.Blocks, naked)
	}
	env := consensus.Seal(endorserKey, &resp)
	observer.OnEnvelope(0, env)
	if got := c.Node(4).App.Chain().Height(); got != 0 {
		t.Fatalf("observer accepted %d uncertified blocks", got)
	}

	// The genuine certified blocks DO advance it.
	var good core.SyncResponse
	for h := uint64(1); h <= chain0.Height(); h++ {
		b, _ := chain0.BlockAt(h)
		good.Blocks = append(good.Blocks, *b)
	}
	observer.OnEnvelope(0, consensus.Seal(endorserKey, &good))
	if got := c.Node(4).App.Chain().Height(); got != chain0.Height() {
		t.Fatalf("observer height %d after certified sync, want %d", got, chain0.Height())
	}
}

// TestSyncAppliedBlocksReachRuntime: every block the sync path applies
// must also be surfaced as an Applied CommitBlock action — that is how
// the runtime persists it to the block log. A silent in-engine apply
// would commit blocks that vanish at the next restart.
func TestSyncAppliedBlocksReachRuntime(t *testing.T) {
	c := grownCluster(t, 4)
	observer := c.CoreEngine(4)
	endorserKey := c.Node(0).Key
	chain0 := c.Node(0).App.Chain()

	var resp core.SyncResponse
	for h := uint64(1); h <= chain0.Height(); h++ {
		b, _ := chain0.BlockAt(h)
		resp.Blocks = append(resp.Blocks, *b)
	}
	acts := observer.OnEnvelope(0, consensus.Seal(endorserKey, &resp))
	var applied []uint64
	for _, a := range acts {
		if cb, ok := a.(consensus.CommitBlock); ok {
			if !cb.Applied {
				t.Fatal("sync-path CommitBlock must carry Applied (the engine already applied it)")
			}
			applied = append(applied, cb.Block.Header.Height)
		}
	}
	if uint64(len(applied)) != chain0.Height() {
		t.Fatalf("surfaced %d applied blocks, want %d", len(applied), chain0.Height())
	}
	for i, h := range applied {
		if h != uint64(i+1) {
			t.Fatalf("applied heights out of order: %v", applied)
		}
	}
}

// TestSyncResponseIgnoresGappyBlocks: responses must apply only a
// contiguous prefix starting at the observer's next height.
func TestSyncResponseIgnoresGappyBlocks(t *testing.T) {
	c := grownCluster(t, 6)
	observer := c.CoreEngine(4)
	endorserKey := c.Node(0).Key
	chain0 := c.Node(0).App.Chain()

	// Offer blocks 3..6 to a node at height 0: nothing applies.
	var resp core.SyncResponse
	for h := uint64(3); h <= 6; h++ {
		b, _ := chain0.BlockAt(h)
		resp.Blocks = append(resp.Blocks, *b)
	}
	observer.OnEnvelope(0, consensus.Seal(endorserKey, &resp))
	if got := c.Node(4).App.Chain().Height(); got != 0 {
		t.Fatalf("gappy sync applied %d blocks", got)
	}
}

// TestForeignAnnounceCostsOneLadder: an EraAnnounce is taken from any
// key whose envelope verifies, in a committee or not. One from a
// stranger naming a height far above the node's costs one block pull
// and the retry ladder behind it — core.MaxSyncRetries more requests,
// each to a committee member — repeating it costs nothing more, and it
// moves neither the chain nor the era. When the ladder is spent, a
// genuine trigger pulls again.
func TestForeignAnnounceCostsOneLadder(t *testing.T) {
	c := grownCluster(t, 4)
	endorser := c.CoreEngine(0)
	chain := c.Node(0).App.Chain()
	h, era := chain.Height(), endorser.Era()
	stranger := gcrypto.DeterministicKeyPair(99)
	ann := consensus.Seal(stranger, &core.EraAnnounce{NewEra: era + 5, Height: h + 1000})

	requests := 0
	var timer consensus.TimerID
	count := func(acts []consensus.Action) {
		for _, a := range acts {
			switch a := a.(type) {
			case consensus.Send:
				if a.Env.MsgKind == consensus.KindBlockSync {
					requests++
				}
			case consensus.StartTimer:
				timer = a.ID
			}
		}
	}
	now := c.Now()
	count(endorser.OnEnvelope(now, ann))
	if requests != 1 || timer == 0 {
		t.Fatalf("announce: %d requests, retry timer %d", requests, timer)
	}
	for fired := 0; timer != 0; fired++ {
		if fired > core.MaxSyncRetries {
			t.Fatalf("the ladder outlived %d retries", core.MaxSyncRetries)
		}
		now += 10 * time.Second // past any backoff
		id := timer
		timer = 0
		count(endorser.OnEnvelope(now, ann))
		count(endorser.OnTimer(now, id))
	}
	if want := 1 + core.MaxSyncRetries; requests != want {
		t.Fatalf("one foreign announce cost %d requests, want %d", requests, want)
	}
	if chain.Height() != h || endorser.Era() != era {
		t.Fatalf("foreign announce moved the node to height %d era %d (was %d, %d)", chain.Height(), endorser.Era(), h, era)
	}
	_, depth := endorser.InFlight()
	if n := syncRequests(endorser.OnEnvelope(now, commitVote(c.Node(1).Key, h+uint64(depth)+1))); n != 1 {
		t.Fatalf("after the ladder, a lagging commit spawned %d sync requests, want 1", n)
	}
}
