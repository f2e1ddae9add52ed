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
)

// Snapshot-then-tail fast sync.
//
// A node that lags far behind (a joiner, or a revenant whose peers have
// compacted the blocks it would need to tail) does not replay history
// block by block. Instead it:
//
//  1. broadcasts a HeadRequest to the committee it last knew,
//  2. waits for a quorum of HeadResponses agreeing on one snapshot
//     (height, root) ahead of its own head — the trust anchor: no
//     single peer, and no producer signature alone, is believed about
//     what the state at a checkpoint is,
//  3. fetches the snapshot from one of the agreeing peers, verifies
//     the producer signature and that the state root matches the
//     quorum-agreed root, installs it wholesale, and
//  4. tails only the blocks after the checkpoint through the ordinary
//     certificate-checked sync path.
//
// Any failure — an unverifiable snapshot, a root mismatch, silent
// peers — rotates to the next agreeing peer and ultimately falls back
// to full block replay. Partial state is never installed
// (ledger.InstallState is all-or-nothing on a decoded, validated
// state).
//
// Every outstanding request (tail pull, head collection, snapshot
// fetch) is guarded by a single retry timer with capped exponential
// backoff and deterministic jitter; peers are rotated across retries.

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
	votesVerified  atomic.Uint64
	votesSurplus   atomic.Uint64
	reqHeld        atomic.Uint64
	reqRerelayed   atomic.Uint64
	propHeld       atomic.Uint64
	propHeldFired  atomic.Uint64
	propParked     atomic.Uint64
	fetchSent      atomic.Uint64
	fetchAnswered  atomic.Uint64
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
	return runtime.SyncStats{
		Retries:            e.sstats.retries.Load(),
		LagPulls:           e.sstats.lagPulls.Load(),
		VotesVerified:      e.sstats.votesVerified.Load(),
		VotesSurplus:       e.sstats.votesSurplus.Load(),
		RequestsHeld:       e.sstats.reqHeld.Load(),
		RequestsRerelayed:  e.sstats.reqRerelayed.Load(),
		ProposalsHeld:      e.sstats.propHeld.Load(),
		ProposalsHeldFired: e.sstats.propHeldFired.Load(),
		ProposalsParked:    e.sstats.propParked.Load(),
		FetchesSent:        e.sstats.fetchSent.Load(),
		FetchesAnswered:    e.sstats.fetchAnswered.Load(),
		BlocksSynced:       e.sstats.blocksSynced.Load(),
		SnapshotsInstalled: e.sstats.snapsInstalled.Load(),
		SnapshotsRejected:  e.sstats.snapsRejected.Load(),
		SnapshotsServed:    e.sstats.snapsServed.Load(),
		Mode:               runtime.SyncMode(e.sstats.mode.Load()),
	}
}

// fastSyncDue reports whether a gap to target is deep enough to prefer
// a snapshot over tailing blocks.
func (e *Engine) fastSyncDue(target uint64) bool {
	return e.cfg.Snapshots != nil && e.fsPhase == fsIdle &&
		target > e.chain.Height() &&
		target-e.chain.Height() >= e.cfg.FastSyncThreshold
}

// startFastSync enters the head-collection phase.
func (e *Engine) startFastSync(target uint64) []consensus.Action {
	if e.committee == nil || len(e.committee.Others(e.self)) == 0 {
		return nil
	}
	e.fsPhase = fsHeads
	e.fsHeads = make(map[gcrypto.Address]HeadResponse)
	e.syncInFlight = true
	if target > e.syncTarget {
		e.syncTarget = target
	}
	e.retries = 0
	acts := e.broadcastHeadRequest(nil)
	return e.armSyncRetry(acts)
}

// broadcastHeadRequest asks every other committee member for its head
// and newest snapshot checkpoint.
func (e *Engine) broadcastHeadRequest(acts []consensus.Action) []consensus.Action {
	if e.committee == nil {
		return acts
	}
	env := consensus.Seal(e.cfg.Key, &HeadRequest{})
	return append(acts, consensus.Broadcast{To: e.committee.Others(e.self), Env: env})
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

// onHeadResponse folds one peer's head into the quorum tally. Outside
// the collection phase it doubles as a redirect: a peer answered a
// block pull with its head because it compacted the requested range —
// the only way forward is a snapshot, regardless of gap depth.
func (e *Engine) onHeadResponse(now consensus.Time, from gcrypto.Address, hr *HeadResponse) []consensus.Action {
	if e.fsPhase != fsHeads {
		if e.fsPhase == fsIdle && e.cfg.Snapshots != nil && hr.SnapHeight > e.chain.Height() {
			return e.startFastSync(hr.Height)
		}
		return nil
	}
	e.fsHeads[from] = *hr
	com := e.committee
	if com == nil {
		return nil
	}
	// Quorum on an exact (height, root) pair ahead of us?
	if hr.SnapHeight > e.chain.Height() {
		votes := 0
		for _, h := range e.fsHeads {
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
	if len(e.fsHeads) >= len(com.Others(e.self)) {
		return e.fallbackReplay(nil)
	}
	return nil
}

// beginSnapshotFetch moves to the fetch phase: request the agreed
// snapshot from the first agreeing peer (deterministic order), rotating
// on failure.
func (e *Engine) beginSnapshotFetch(height uint64, root gcrypto.Hash) []consensus.Action {
	e.fsPhase = fsFetch
	e.fsHeight = height
	e.fsRoot = root
	e.fsVoters = e.fsVoters[:0]
	for addr, h := range e.fsHeads {
		if h.SnapHeight == height && h.SnapRoot == root {
			e.fsVoters = append(e.fsVoters, addr)
		}
	}
	sort.Slice(e.fsVoters, func(i, j int) bool { return e.fsVoters[i].Less(e.fsVoters[j]) })
	e.fsVoterIdx = 0
	e.retries = 0
	acts := e.requestSnapshot(nil)
	return e.armSyncRetry(acts)
}

// requestSnapshot asks the current voter for the agreed snapshot.
func (e *Engine) requestSnapshot(acts []consensus.Action) []consensus.Action {
	if e.fsVoterIdx >= len(e.fsVoters) {
		return acts
	}
	env := consensus.Seal(e.cfg.Key, &SnapshotRequest{Height: e.fsHeight})
	return append(acts, consensus.Send{To: e.fsVoters[e.fsVoterIdx], Env: env})
}

// nextSnapshotVoter rotates to the next agreeing peer, or falls back to
// full replay when every one of them failed us.
func (e *Engine) nextSnapshotVoter(acts []consensus.Action) []consensus.Action {
	e.fsVoterIdx++
	if e.fsVoterIdx >= len(e.fsVoters) {
		return e.fallbackReplay(acts)
	}
	acts = e.requestSnapshot(acts)
	return e.armSyncRetry(acts)
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

// onSnapshotResponse verifies and installs the fetched snapshot. The
// carrier is untrusted: the bytes must decode, carry a valid producer
// signature, and hash to exactly the quorum-agreed root, and the ledger
// must accept the state (genesis match, strictly ahead of our head) —
// otherwise the peer is rotated and the snapshot counted rejected.
func (e *Engine) onSnapshotResponse(now consensus.Time, from gcrypto.Address, resp *SnapshotResponse) []consensus.Action {
	if e.fsPhase != fsFetch || resp.Height != e.fsHeight {
		return nil
	}
	snap, err := store.DecodeSnapshot(resp.Data)
	if err == nil {
		err = snap.Verify()
	}
	if err == nil && (snap.Height() != e.fsHeight || snap.Root() != e.fsRoot) {
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

	acts := []consensus.Action{consensus.SnapshotInstalled{Era: snap.Era(), Height: snap.Height()}}
	// The installed state usually belongs to a newer era: join it (or
	// keep observing it) exactly like a block-sync catch-up would.
	acts = append(acts, e.maybeJoin(now)...)
	if e.inner != nil && !e.switching && e.chain.Era() == e.era && e.chain.Height() >= e.inner.NextSeq() {
		acts = append(acts, e.filterInner(now, e.inner.AdvanceTo(now, e.chain.Height()))...)
	}
	// Tail the blocks after the checkpoint through the ordinary path.
	e.syncInFlight = true
	if e.syncTarget < snap.Height() {
		e.syncTarget = snap.Height()
	}
	e.retries = 0
	req := consensus.Seal(e.cfg.Key, &SyncRequest{FromHeight: e.chain.Height() + 1})
	acts = append(acts, consensus.Send{To: from, Env: req})
	return e.armSyncRetry(acts)
}

// fallbackReplay abandons the snapshot path and pulls blocks from the
// best-informed peer. Correctness never depends on snapshots — they are
// an optimization with a verified-or-replay failure mode.
func (e *Engine) fallbackReplay(acts []consensus.Action) []consensus.Action {
	// Prefer the peer that reported the highest head.
	var best gcrypto.Address
	bestHeight := uint64(0)
	haveBest := false
	for addr, h := range e.fsHeads {
		if !haveBest || h.Height > bestHeight || (h.Height == bestHeight && addr.Less(best)) {
			best, bestHeight, haveBest = addr, h.Height, true
		}
	}
	e.resetFastSync()
	e.sstats.mode.Store(uint32(runtime.SyncModeReplay))
	e.syncInFlight = true
	if bestHeight > e.syncTarget {
		// Replay has to reach the head the peers reported, not just the
		// target that opened the fast-sync attempt (a restart polls
		// heads knowing only its own height).
		e.syncTarget = bestHeight
	}
	if !haveBest {
		best = e.rotationPeer()
	}
	if best == (gcrypto.Address{}) {
		e.syncInFlight = false
		return acts
	}
	req := consensus.Seal(e.cfg.Key, &SyncRequest{FromHeight: e.chain.Height() + 1})
	acts = append(acts, consensus.Send{To: best, Env: req})
	return e.armSyncRetry(acts)
}

// resetFastSync clears the snapshot state machine back to idle.
func (e *Engine) resetFastSync() {
	e.fsPhase = fsIdle
	e.fsHeads = nil
	e.fsVoters = nil
	e.fsVoterIdx = 0
	e.fsHeight = 0
	e.fsRoot = gcrypto.Hash{}
}

// --- retry timer ---

// armSyncRetry (re)arms the single sync retry timer with the current
// backoff delay.
func (e *Engine) armSyncRetry(acts []consensus.Action) []consensus.Action {
	if e.retryTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.retryTID})
		delete(e.timers, e.retryTID)
	}
	id := e.cfg.Timers.Next()
	e.retryTID = id
	e.timers[id] = tSyncRetry
	return append(acts, consensus.StartTimer{ID: id, Delay: e.backoffDelay()})
}

// stopSyncRetry cancels the retry timer after a catch-up completes.
func (e *Engine) stopSyncRetry(acts []consensus.Action) []consensus.Action {
	if e.retryTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.retryTID})
		delete(e.timers, e.retryTID)
		e.retryTID = 0
	}
	e.retries = 0
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
	d := syncRetryBase << e.retries
	if d > syncRetryCap || d <= 0 {
		d = syncRetryCap
	}
	e.retrySeq++
	var buf [28]byte
	copy(buf[:20], e.self[:])
	binary.BigEndian.PutUint64(buf[20:], e.retrySeq)
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
	return others[int(e.retrySeq)%len(others)]
}

// onSyncRetry fires when an outstanding sync/head/snapshot request went
// unanswered for a full backoff window.
func (e *Engine) onSyncRetry(now consensus.Time) []consensus.Action {
	e.retryTID = 0
	if e.fsPhase == fsIdle && e.chain.Height() >= e.syncTarget {
		// Consensus got there first: a retry would only have blocks this
		// node already holds shipped again.
		e.syncInFlight = false
	}
	if e.fsPhase == fsIdle && !e.syncInFlight {
		return nil // satisfied in the meantime
	}
	if e.retries >= maxSyncRetries {
		// Give up on this round. If we were mid-snapshot-dance, degrade
		// to replay first; a plain pull just goes quiet until the next
		// overheard commit or era announce re-triggers it.
		if e.fsPhase != fsIdle {
			return e.fallbackReplay(nil)
		}
		e.syncInFlight = false
		return nil
	}
	e.retries++
	e.sstats.retries.Add(1)
	var acts []consensus.Action
	switch e.fsPhase {
	case fsHeads:
		acts = e.broadcastHeadRequest(acts)
	case fsFetch:
		// The current voter is silent; rotate.
		return e.nextSnapshotVoter(acts)
	default:
		req := consensus.Seal(e.cfg.Key, &SyncRequest{FromHeight: e.chain.Height() + 1})
		to := e.rotationPeer()
		if to == (gcrypto.Address{}) {
			e.syncInFlight = false
			return acts
		}
		acts = append(acts, consensus.Send{To: to, Env: req})
	}
	return e.armSyncRetry(acts)
}
