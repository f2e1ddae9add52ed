package core

import (
	"encoding/binary"
	"sort"
	"sync/atomic"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// Catch-up: a node that is behind fetches the blocks it is missing.
// Every trigger calls one entry, catchUp; requestBlocks builds every
// SyncRequest; landed is the one step after sync moves the chain.
//
// A snapshot replaces the block pull when the gap is deep or unknown,
// or a peer compacted the blocks: the node polls the committee it last
// knew for heads, waits for a quorum agreeing on one snapshot (height,
// root) ahead of it — the trust anchor: no single peer, and no producer
// signature alone, is believed about a checkpoint's state — fetches it
// from an agreeing peer, checks the producer signature and the agreed
// root, installs it wholesale, and tails the blocks after it as the next
// page of an ordinary pull. Any failure rotates to the next agreeing
// peer and ends in a block pull; partial state is never installed.

// fast-sync phases.
const (
	fsIdle  uint8 = iota // no snapshot sync in progress
	fsHeads              // collecting HeadResponses, waiting for a quorum
	fsFetch              // quorum reached, fetching the snapshot
)

// maxSyncRetries bounds re-issues of one logical catch-up before the
// engine gives up and waits for the next trigger (an overheard commit,
// an era announce).
const maxSyncRetries = 6

// syncStats counts catch-up activity. Atomics, not plain fields: the
// metrics endpoint snapshots them from outside the event loop.
type syncStats struct {
	retries        atomic.Uint64
	lagPulls       atomic.Uint64
	blocksSynced   atomic.Uint64
	snapsInstalled atomic.Uint64
	snapsRejected  atomic.Uint64
	snapsServed    atomic.Uint64
	mode           atomic.Uint32
}

// SyncStats implements runtime.SyncStatsProvider. Mode reports how the
// most recent deep catch-up (one that considered a snapshot) resolved;
// shallow in-era tail pulls do not touch it.
func (e *Engine) SyncStats() runtime.SyncStats {
	n := e.node
	held, rerelayed := n.Held.Counts()
	return runtime.SyncStats{
		Retries:            e.sstats.retries.Load(),
		LagPulls:           e.sstats.lagPulls.Load(),
		VotesVerified:      n.VotesVerified.Load(),
		VotesSurplus:       n.VotesSurplus.Load(),
		RequestsHeld:       held,
		RequestsRerelayed:  rerelayed,
		ProposalsHeld:      n.ProposalsHeld.Load(),
		ProposalsHeldFired: n.ProposalsHeldFired.Load(),
		ProposalsParked:    n.ProposalsParked.Load(),
		FetchesSent:        n.FetchesSent.Load(),
		FetchesAnswered:    n.FetchesAnswered.Load(),
		BlocksSynced:       e.sstats.blocksSynced.Load(),
		SnapshotsInstalled: e.sstats.snapsInstalled.Load(),
		SnapshotsRejected:  e.sstats.snapsRejected.Load(),
		SnapshotsServed:    e.sstats.snapsServed.Load(),
		Mode:               runtime.SyncMode(e.sstats.mode.Load()),
	}
}

// catchUpState is the state of this node's one catch-up.
type catchUpState struct {
	inFlight bool   // a block pull is outstanding
	target   uint64 // the height it must reach

	// The snapshot state machine: its phase, the heads collected, the
	// agreed checkpoint and the peers that agreed on it.
	phase      uint8
	heads      map[gcrypto.Address]HeadResponse
	snapHeight uint64
	snapRoot   gcrypto.Hash
	voters     []gcrypto.Address
	voterIdx   int

	// The single retry ladder over every outstanding request.
	retryTID consensus.TimerID
	retries  uint32
	retrySeq uint64

	// Lag suspicion (maybeLagSync): the in-window commit that found this
	// node without a proposal for its next slot, and the grace timer
	// after which that still being so counts as having fallen behind.
	lagTID  consensus.TimerID
	lagSeq  uint64
	lagFrom gcrypto.Address
}

// cause names what told a node it may be behind.
type cause uint8

const (
	byRestart  cause = iota // Init after a restart: the gap is unknown
	byView                  // the inner instance entered a view: any gap is shallow
	byCommit                // a commit vote proves the blocks below its slot (LagPulls)
	byAnnounce              // an EraAnnounce names a boundary block's height
	byRedirect              // a peer answered a pull with its head: it compacted the range
)

// catchUp is the one entry every trigger calls, with the height it
// proves and the peer that proved it. A view entry asks every other
// member once: it proves no height, so it sets no target and arms no
// retry, and a member with nothing newer stays silent. So does a
// restart without snapshots; with them it polls heads, as a redirect
// does. Any other trigger is followed unless a snapshot fetch runs
// (which only raises the target: the tail after the install covers it)
// or a pull already aims as high: a gap of FastSyncThreshold or more
// polls heads, a shallower one pulls from the peer that proved it.
func (e *Engine) catchUp(why cause, height uint64, from gcrypto.Address) []consensus.Action {
	cu := &e.cu
	switch why {
	case byView:
		return e.requestBlocks(gcrypto.Address{}, nil)
	case byRestart, byRedirect:
		if e.cfg.Snapshots != nil && cu.phase == fsIdle {
			return e.startFastSync(height)
		}
		if why == byRestart {
			return e.requestBlocks(gcrypto.Address{}, nil)
		}
		return nil
	}
	if cu.phase != fsIdle {
		cu.target = max(cu.target, height)
		return nil
	}
	if cu.inFlight && cu.target >= height {
		return nil
	}
	if own := e.chain.Height(); e.cfg.Snapshots != nil && height > own && height-own >= e.cfg.FastSyncThreshold {
		return e.startFastSync(height)
	}
	cu.inFlight, cu.target = true, height
	if why == byCommit {
		e.sstats.lagPulls.Add(1)
	}
	return e.requestBlocks(from, nil)
}

// requestBlocks is the one place a SyncRequest is built: it asks peer
// for the blocks above this node's head and arms the retry ladder. With
// no peer named it asks every other member, and arms nothing.
func (e *Engine) requestBlocks(peer gcrypto.Address, acts []consensus.Action) []consensus.Action {
	if peer == (gcrypto.Address{}) && e.committee == nil {
		return acts
	}
	req := consensus.Seal(e.cfg.Key, &SyncRequest{FromHeight: e.chain.Height() + 1})
	if peer != (gcrypto.Address{}) {
		return e.armSyncRetry(append(acts, consensus.Send{To: peer, Env: req}))
	}
	for _, addr := range e.committee.Others(e.self) {
		acts = append(acts, consensus.Send{To: addr, Env: req})
	}
	return acts
}

// applySync applies certificate-carrying blocks directly through the
// application (AddBlock verifies certificates against the committee as
// of each height). Each applied block is also surfaced as an Applied
// CommitBlock action so the runtime persists it — without that, synced
// blocks would exist only in memory and vanish at the next restart.
func (e *Engine) applySync(now consensus.Time, from gcrypto.Address, resp *SyncResponse) []consensus.Action {
	var acts []consensus.Action
	// Warm the signature cache across the whole response in one parallel
	// batch before the serial per-block Commit loop: each ValidateBlock
	// then finds its transactions' signatures already accepted.
	for i := range resp.Blocks {
		types.PrewarmTxs(resp.Blocks[i].Txs)
	}
	applied := uint64(0)
	for i := range resp.Blocks {
		b := resp.Blocks[i]
		if b.Header.Height != e.chain.Height()+1 {
			continue
		}
		if b.Cert == nil {
			break // uncertified sync blocks are not trusted
		}
		if err := e.cfg.App.Commit(&b); err != nil {
			break
		}
		applied++
		acts = append(acts, consensus.CommitBlock{Block: &b, Applied: true})
	}
	if applied > 0 {
		e.sstats.blocksSynced.Add(applied)
		e.cu.retries = 0 // the peer is answering; restart the backoff ladder
	}
	// A full page applied to its last block: the peer stopped at the cap,
	// not at its head.
	full := applied > 0 && len(resp.Blocks) == MaxSyncBlocks &&
		resp.Blocks[MaxSyncBlocks-1].Header.Height == e.chain.Height()
	return e.landed(now, from, full, acts)
}

// landed is the one step after sync moves the chain — blocks applied, or
// a snapshot installed. It keeps a live inner instance aligned with the
// new head (sync can race normal consensus when this node lags inside
// its own era), enters the chain's era if sync carried it there, and
// then asks from for the next page while the pull is short of its
// target or from may have more; otherwise the pull is over.
func (e *Engine) landed(now consensus.Time, from gcrypto.Address, more bool, acts []consensus.Action) []consensus.Action {
	if e.inner != nil && !e.switching && e.chain.Era() == e.era && e.chain.Height() >= e.inner.NextSeq() {
		acts = append(acts, e.filterInner(now, e.inner.AdvanceTo(now, e.chain.Height()))...)
	}
	acts = append(acts, e.maybeJoin(now)...)
	e.cu.inFlight = more || e.chain.Height() < e.cu.target
	if e.cu.inFlight {
		return e.requestBlocks(from, acts)
	}
	return e.stopSyncRetry(acts)
}

// --- snapshot fast sync ---

// startFastSync enters the head-collection phase.
func (e *Engine) startFastSync(target uint64) []consensus.Action {
	if e.committee == nil || len(e.committee.Others(e.self)) == 0 {
		return nil
	}
	cu := &e.cu
	cu.phase = fsHeads
	cu.heads = make(map[gcrypto.Address]HeadResponse)
	cu.inFlight = true
	cu.target = max(cu.target, target)
	cu.retries = 0
	return e.armSyncRetry(e.broadcastHeadRequest(nil))
}

// broadcastHeadRequest asks every other committee member for its head
// and newest snapshot checkpoint.
func (e *Engine) broadcastHeadRequest(acts []consensus.Action) []consensus.Action {
	env := consensus.Seal(e.cfg.Key, &HeadRequest{})
	return append(acts, consensus.Broadcast{To: e.committee.Others(e.self), Env: env})
}

// onHeadResponse folds one peer's head into the quorum tally. Outside
// the collection phase it is a redirect: a peer answered a block pull
// with its head because it compacted the requested range.
func (e *Engine) onHeadResponse(from gcrypto.Address, hr *HeadResponse) []consensus.Action {
	cu := &e.cu
	if cu.phase != fsHeads {
		if hr.SnapHeight <= e.chain.Height() {
			return nil
		}
		return e.catchUp(byRedirect, hr.Height, from)
	}
	cu.heads[from] = *hr
	com := e.committee
	// Quorum on an exact (height, root) pair ahead of us?
	if hr.SnapHeight > e.chain.Height() {
		votes := 0
		for _, h := range cu.heads {
			if h.SnapHeight == hr.SnapHeight && h.SnapRoot == hr.SnapRoot {
				votes++
			}
		}
		if votes >= com.Quorum() {
			return e.beginSnapshotFetch(hr.SnapHeight, hr.SnapRoot)
		}
	}
	// Everyone answered and no pair reached quorum (peers disagree, or
	// nobody holds a snapshot ahead of us): fall back to block replay.
	if len(cu.heads) >= len(com.Others(e.self)) {
		return e.fallbackReplay(nil)
	}
	return nil
}

// beginSnapshotFetch moves to the fetch phase: request the agreed
// snapshot from the first agreeing peer (deterministic order), rotating
// on failure.
func (e *Engine) beginSnapshotFetch(height uint64, root gcrypto.Hash) []consensus.Action {
	cu := &e.cu
	cu.phase = fsFetch
	cu.snapHeight = height
	cu.snapRoot = root
	cu.voters = cu.voters[:0]
	for addr, h := range cu.heads {
		if h.SnapHeight == height && h.SnapRoot == root {
			cu.voters = append(cu.voters, addr)
		}
	}
	sort.Slice(cu.voters, func(i, j int) bool { return cu.voters[i].Less(cu.voters[j]) })
	cu.voterIdx = 0
	cu.retries = 0
	return e.armSyncRetry(e.requestSnapshot(nil))
}

// requestSnapshot asks the current voter for the agreed snapshot.
func (e *Engine) requestSnapshot(acts []consensus.Action) []consensus.Action {
	cu := &e.cu
	if cu.voterIdx >= len(cu.voters) {
		return acts
	}
	env := consensus.Seal(e.cfg.Key, &SnapshotRequest{Height: cu.snapHeight})
	return append(acts, consensus.Send{To: cu.voters[cu.voterIdx], Env: env})
}

// nextSnapshotVoter rotates to the next agreeing peer, or falls back to
// full replay when every one of them failed us.
func (e *Engine) nextSnapshotVoter(acts []consensus.Action) []consensus.Action {
	e.cu.voterIdx++
	if e.cu.voterIdx >= len(e.cu.voters) {
		return e.fallbackReplay(acts)
	}
	return e.armSyncRetry(e.requestSnapshot(acts))
}

// onSnapshotResponse verifies and installs the fetched snapshot. The
// carrier is untrusted: the bytes must decode, carry a valid producer
// signature, and hash to exactly the quorum-agreed root, and the ledger
// must accept the state (genesis match, strictly ahead of our head) —
// otherwise the peer is rotated and the snapshot counted rejected. An
// installed snapshot is the first page of a pull from its carrier: the
// blocks after the checkpoint are the next.
func (e *Engine) onSnapshotResponse(now consensus.Time, from gcrypto.Address, resp *SnapshotResponse) []consensus.Action {
	if e.cu.phase != fsFetch || resp.Height != e.cu.snapHeight {
		return nil
	}
	snap, err := store.DecodeSnapshot(resp.Data)
	if err == nil {
		err = snap.Verify()
	}
	if err == nil && (snap.Height() != e.cu.snapHeight || snap.Root() != e.cu.snapRoot) {
		err = store.ErrCorruptSnapshot
	}
	if err == nil {
		err = e.chain.InstallState(snap.State)
	}
	if err != nil {
		e.sstats.snapsRejected.Add(1)
		return e.nextSnapshotVoter(nil)
	}
	e.sstats.snapsInstalled.Add(1)
	e.sstats.mode.Store(uint32(runtime.SyncModeSnapshot))
	_ = e.cfg.Snapshots.Add(snap) // retain locally for our own restarts and peers
	e.resetFastSync()
	e.cu.retries = 0
	acts := []consensus.Action{consensus.SnapshotInstalled{Era: snap.Era(), Height: snap.Height()}}
	return e.landed(now, from, true, acts)
}

// fallbackReplay abandons the snapshot path and pulls blocks from the
// best-informed peer. Correctness never depends on snapshots — they are
// an optimization with a verified-or-replay failure mode.
func (e *Engine) fallbackReplay(acts []consensus.Action) []consensus.Action {
	cu := &e.cu
	// Prefer the peer that reported the highest head.
	var best gcrypto.Address
	bestHeight := uint64(0)
	haveBest := false
	for addr, h := range cu.heads {
		if !haveBest || h.Height > bestHeight || (h.Height == bestHeight && addr.Less(best)) {
			best, bestHeight, haveBest = addr, h.Height, true
		}
	}
	e.resetFastSync()
	e.sstats.mode.Store(uint32(runtime.SyncModeReplay))
	// Replay has to reach the head the peers reported, not just the
	// target that opened the fast-sync attempt (a restart polls heads
	// knowing only its own height).
	cu.target = max(cu.target, bestHeight)
	if !haveBest {
		best = e.rotationPeer()
	}
	cu.inFlight = best != (gcrypto.Address{})
	if !cu.inFlight {
		return acts
	}
	return e.requestBlocks(best, acts)
}

// resetFastSync clears the snapshot state machine back to idle.
func (e *Engine) resetFastSync() {
	cu := &e.cu
	cu.phase, cu.heads, cu.voters, cu.voterIdx = fsIdle, nil, nil, 0
	cu.snapHeight, cu.snapRoot = 0, gcrypto.Hash{}
}

// --- retry ladder ---

// armSyncRetry (re)arms the single sync retry timer with the current
// backoff delay.
func (e *Engine) armSyncRetry(acts []consensus.Action) []consensus.Action {
	if e.cu.retryTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.cu.retryTID})
		delete(e.timers, e.cu.retryTID)
	}
	id := e.cfg.Timers.Next()
	e.cu.retryTID = id
	e.timers[id] = tSyncRetry
	return append(acts, consensus.StartTimer{ID: id, Delay: e.backoffDelay()})
}

// stopSyncRetry cancels the retry timer after a catch-up completes.
func (e *Engine) stopSyncRetry(acts []consensus.Action) []consensus.Action {
	if e.cu.retryTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.cu.retryTID})
		delete(e.timers, e.cu.retryTID)
		e.cu.retryTID = 0
	}
	e.cu.retries = 0
	return acts
}

// syncRetryBase and syncRetryCap bound the capped exponential backoff on
// unanswered sync, head and snapshot requests; syncRetryBase is also the
// grace a lag suspicion waits before it is checked.
const (
	syncRetryBase = 500 * time.Millisecond
	syncRetryCap  = 8 * time.Second
)

// backoffDelay is capped exponential backoff with deterministic jitter:
// the engine must stay a pure function of its inputs (the simulator
// replays it), so the jitter is derived from the node address and the
// attempt counter rather than a random source.
func (e *Engine) backoffDelay() time.Duration {
	d := syncRetryBase << e.cu.retries
	if d > syncRetryCap || d <= 0 {
		d = syncRetryCap
	}
	e.cu.retrySeq++
	var buf [28]byte
	copy(buf[:20], e.self[:])
	binary.BigEndian.PutUint64(buf[20:], e.cu.retrySeq)
	h := gcrypto.HashBytes(buf[:])
	jitter := time.Duration(binary.BigEndian.Uint64(h[:8]) % uint64(syncRetryBase/2+1))
	return d + jitter
}

// rotationPeer picks a committee peer round-robin by attempt count.
func (e *Engine) rotationPeer() gcrypto.Address {
	if e.committee == nil {
		return gcrypto.Address{}
	}
	others := e.committee.Others(e.self)
	if len(others) == 0 {
		return gcrypto.Address{}
	}
	return others[int(e.cu.retrySeq)%len(others)]
}

// onSyncRetry fires when an outstanding sync/head/snapshot request went
// unanswered for a full backoff window.
func (e *Engine) onSyncRetry() []consensus.Action {
	cu := &e.cu
	cu.retryTID = 0
	if cu.phase == fsIdle && e.chain.Height() >= cu.target {
		// Consensus got there first: a retry would only have blocks this
		// node already holds shipped again.
		cu.inFlight = false
	}
	if cu.phase == fsIdle && !cu.inFlight {
		return nil // satisfied in the meantime
	}
	if cu.retries >= maxSyncRetries {
		// Give up on this round. If we were mid-snapshot-dance, degrade
		// to replay first; a plain pull just goes quiet until the next
		// overheard commit or era announce re-triggers it.
		if cu.phase != fsIdle {
			return e.fallbackReplay(nil)
		}
		cu.inFlight = false
		return nil
	}
	cu.retries++
	e.sstats.retries.Add(1)
	switch cu.phase {
	case fsHeads:
		return e.armSyncRetry(e.broadcastHeadRequest(nil))
	case fsFetch:
		// The current voter is silent; rotate.
		return e.nextSnapshotVoter(nil)
	}
	to := e.rotationPeer()
	cu.inFlight = to != (gcrypto.Address{})
	if !cu.inFlight {
		return nil
	}
	return e.requestBlocks(to, nil)
}

// --- serving peers ---

// serveSync answers a sync request with committed blocks (certificates
// included).
func (e *Engine) serveSync(to gcrypto.Address, from uint64) []consensus.Action {
	head := e.chain.Height()
	if from == 0 {
		from = 1
	}
	if from > head {
		return nil
	}
	if from < e.chain.BaseHeight() {
		// Compaction dropped the requested range: redirect the puller to
		// the snapshot path by answering with our head and checkpoint.
		return e.onHeadRequest(to)
	}
	resp := &SyncResponse{}
	for h := from; h <= head && len(resp.Blocks) < MaxSyncBlocks; h++ {
		b, err := e.chain.BlockAt(h)
		if err != nil {
			break
		}
		resp.Blocks = append(resp.Blocks, *b)
	}
	if len(resp.Blocks) == 0 {
		return nil
	}
	return []consensus.Action{consensus.Send{To: to, Env: consensus.Seal(e.cfg.Key, resp)}}
}

// onHeadRequest serves this node's head and newest snapshot.
func (e *Engine) onHeadRequest(from gcrypto.Address) []consensus.Action {
	resp := &HeadResponse{Height: e.chain.Height()}
	if e.cfg.Snapshots != nil {
		if snap, err := e.cfg.Snapshots.Latest(); err == nil && snap != nil {
			resp.SnapHeight = snap.Height()
			resp.SnapRoot = snap.Root()
		}
	}
	return []consensus.Action{consensus.Send{To: from, Env: consensus.Seal(e.cfg.Key, resp)}}
}

// onSnapshotRequest serves a retained snapshot on an exact height
// match. Only heights this node advertised can match, so there is no
// historic-lookup surface to abuse.
func (e *Engine) onSnapshotRequest(from gcrypto.Address, req *SnapshotRequest) []consensus.Action {
	if e.cfg.Snapshots == nil {
		return nil
	}
	snap, err := e.cfg.Snapshots.Latest()
	if err != nil || snap == nil || snap.Height() != req.Height {
		return nil
	}
	e.sstats.snapsServed.Add(1)
	resp := &SnapshotResponse{Height: req.Height, Data: store.EncodeSnapshot(snap)}
	return []consensus.Action{consensus.Send{To: from, Env: consensus.Seal(e.cfg.Key, resp)}}
}
