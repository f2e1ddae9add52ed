package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// Executor is the environment a node executes engine actions against.
// The discrete-event simulator and the real-time transport runner each
// provide one.
type Executor interface {
	// Send transmits an envelope to a peer.
	Send(to gcrypto.Address, env *consensus.Envelope)
	// SetTimer schedules OnTimer(id) after delay.
	SetTimer(id consensus.TimerID, delay consensus.Time)
	// CancelTimer cancels a pending timer (best effort).
	CancelTimer(id consensus.TimerID)
}

// Node binds an engine, its application, and an executor. Node methods
// must be invoked from a single event loop (the simulator or the
// transport runner's loop); they are not concurrency-safe themselves.
type Node struct {
	ID     gcrypto.Address
	Key    *gcrypto.KeyPair
	App    *App
	Engine consensus.Engine
	Exec   Executor

	// OnCommit, if set, observes every committed block (metrics).
	OnCommit func(now consensus.Time, b *types.Block)
	// OnEraSwitch, if set, observes completed era switches.
	OnEraSwitch func(now consensus.Time, era uint64, committee []gcrypto.Address)
	// Admission, if set, gates Submit with per-identity rate limits and
	// load shedding, and is fed commit latencies for its EWMA. Nil
	// reproduces the unprotected behavior exactly.
	Admission *Admission
	// Relay, if set, replaces all-to-all broadcast with epidemic gossip:
	// engine Broadcast actions are queued and periodically flushed as
	// batched relay frames to a random fanout, and incoming relay frames
	// are unwrapped through the duplicate-suppression map before engine
	// delivery. Nil reproduces the direct-broadcast path exactly.
	Relay *consensus.Relay
	// Durable, if set, is the node's durable state: every committed block
	// is appended to it before OnCommit sees it, an era switch compacts
	// it, and a snapshot install re-anchors its block log. A block it
	// cannot persist, or a vote WAL write that fails, fail-stops the node
	// (Halted).
	Durable *store.Dir
	// CommitErr records the first commit failure (a bug or a fork).
	CommitErr error

	halted error // see Halted

	// relayFlushArmed tracks whether a relay flush timer is pending, so
	// the timer is armed on demand (only while the queue is non-empty)
	// and the event loop still reaches quiescence when traffic stops.
	relayFlushArmed bool

	ctr nodeCounters
}

// nodeCounters tracks engine-loop activity with atomics so metrics
// readers (the -metrics-addr HTTP handler) can snapshot them from
// outside the event loop without racing it.
type nodeCounters struct {
	delivered  atomic.Uint64
	fired      atomic.Uint64
	submitted  atomic.Uint64
	rejected   atomic.Uint64
	committed  atomic.Uint64
	lastHeight atomic.Uint64
}

// CounterSnapshot is a point-in-time view of a node's event counters.
type CounterSnapshot struct {
	// Delivered counts envelopes fed to the engine, Fired timer
	// expiries, Submitted accepted local transactions, Rejected
	// transactions refused at submission.
	Delivered uint64
	Fired     uint64
	Submitted uint64
	Rejected  uint64
	// Committed counts blocks applied to the chain; LastHeight is the
	// height of the most recent one.
	Committed  uint64
	LastHeight uint64
	// Pool is the mempool backpressure snapshot.
	Pool PoolStats
	// Admission is the ingress QoS snapshot (zero value when admission
	// control is disabled).
	Admission AdmissionStats
	// Sync is the engine's catch-up activity (zero value when the
	// engine does not report sync statistics).
	Sync SyncStats
	// Relay is the gossip relay snapshot (zero value when gossip is
	// disabled).
	Relay consensus.RelayStats
}

// SyncMode records how a node last caught up with the chain.
type SyncMode uint8

// Sync modes, in escalation order.
const (
	// SyncModeNone: no catch-up has run.
	SyncModeNone SyncMode = iota
	// SyncModeReplay: block-by-block tailing only.
	SyncModeReplay
	// SyncModeSnapshot: a verified snapshot was installed, then tailed.
	SyncModeSnapshot
)

// String names the sync mode (Prometheus label and inspect output).
func (m SyncMode) String() string {
	switch m {
	case SyncModeReplay:
		return "replay"
	case SyncModeSnapshot:
		return "snapshot"
	default:
		return "none"
	}
}

// SyncStats is an engine's view of its own catch-up machinery.
type SyncStats struct {
	// Retries counts timed-out sync/head/snapshot requests that were
	// re-issued (with backoff) to the same or a rotated peer.
	Retries uint64
	// LagPulls counts block pulls started because an overheard commit
	// proved this node behind the committee (zero on a healthy run:
	// commits inside the pipelining window pull nothing).
	LagPulls uint64
	// VotesVerified and VotesSurplus are the engine's account of its
	// vote fast path, carried in the one engine snapshot the runtime
	// reads: prepares, commits and checkpoints whose seal was checked
	// because they were about to be stored, and those dropped unverified
	// because their phase already held its quorum or their slot was
	// already stable.
	VotesVerified uint64
	VotesSurplus  uint64
	// RequestsHeld and RequestsRerelayed count the entries in and out of
	// the node's held list (pbft.Held); equal whenever nothing waits.
	RequestsHeld      uint64
	RequestsRerelayed uint64
	// ProposalsHeld counts the under-full head blocks this node, as
	// primary, held back for half a round time instead of proposing them back
	// to back; ProposalsHeldFired counts the holds that ran their full
	// time (the rest ended early on a fuller pool or a view change).
	ProposalsHeld      uint64
	ProposalsHeldFired uint64
	// ProposalsParked counts pre-prepares whose block this node could not
	// assemble from its pool on arrival; FetchesSent the requests it sent
	// for their bodies, FetchesAnswered the requests it answered.
	ProposalsParked uint64
	FetchesSent     uint64
	FetchesAnswered uint64
	// BlocksSynced counts blocks applied through the sync path (as
	// opposed to ordinary consensus commits).
	BlocksSynced uint64
	// SnapshotsInstalled / SnapshotsRejected count fast-sync outcomes;
	// SnapshotsServed counts snapshots this node shipped to others.
	SnapshotsInstalled uint64
	SnapshotsRejected  uint64
	SnapshotsServed    uint64
	// Mode is how the most recent catch-up completed.
	Mode SyncMode
}

// SyncStatsProvider is implemented by engines that track catch-up
// statistics (the era-layer engine does).
type SyncStatsProvider interface {
	SyncStats() SyncStats
}

// Counters snapshots the node's event counters; safe to call from any
// goroutine.
func (n *Node) Counters() CounterSnapshot {
	cs := CounterSnapshot{
		Delivered:  n.ctr.delivered.Load(),
		Fired:      n.ctr.fired.Load(),
		Submitted:  n.ctr.submitted.Load(),
		Rejected:   n.ctr.rejected.Load(),
		Committed:  n.ctr.committed.Load(),
		LastHeight: n.ctr.lastHeight.Load(),
	}
	if n.App != nil {
		cs.Pool = n.App.Pool().Stats()
	}
	cs.Admission = n.Admission.Stats()
	if sp, ok := n.Engine.(SyncStatsProvider); ok {
		cs.Sync = sp.SyncStats()
	}
	if n.Relay != nil {
		cs.Relay = n.Relay.Stats()
	}
	return cs
}

// Halted returns why the node fail-stopped, nil while it runs: its
// durable state could not persist a committed block, or its vote WAL
// failed a write. A halted node handles no further input and sends
// nothing; a restart recovers it by its vote WAL and block sync.
func (n *Node) Halted() error { return n.halted }

// Start runs the engine's Init.
func (n *Node) Start(now consensus.Time) {
	n.apply(now, n.Engine.Init(now))
}

// HandleMessage makes Node satisfy the simulator's Handler interface.
func (n *Node) HandleMessage(now consensus.Time, env *consensus.Envelope) {
	n.Deliver(now, env)
}

// HandleTimer makes Node satisfy the simulator's Handler interface.
func (n *Node) HandleTimer(now consensus.Time, id consensus.TimerID) {
	n.Fire(now, id)
}

// Deliver feeds a received envelope to the engine. Relay frames are
// unwrapped first: each novel inner envelope counts and delivers like
// one received from the relayer, duplicates are suppressed by the
// dupemap, and a stray frame with gossip disabled is dropped (a relay
// frame is unsealed, so it must never reach an engine's Verify path).
func (n *Node) Deliver(now consensus.Time, env *consensus.Envelope) {
	if n.halted != nil {
		return
	}
	if env.MsgKind == consensus.KindRelay {
		if n.Relay == nil {
			return
		}
		novel, err := n.Relay.Receive(now, env)
		if err != nil {
			return
		}
		for _, inner := range novel {
			n.ctr.delivered.Add(1)
			n.apply(now, n.Engine.OnEnvelope(now, consensus.Attributed(inner, env.From)))
		}
		n.armRelayFlush(now)
		return
	}
	n.ctr.delivered.Add(1)
	n.apply(now, n.Engine.OnEnvelope(now, env))
}

// Fire feeds a timer expiry to the engine. The reserved relay timer is
// handled here: it drains the relay's pending queue as batched frames
// to the fanout and never reaches the engine.
func (n *Node) Fire(now consensus.Time, id consensus.TimerID) {
	if n.halted != nil {
		return
	}
	if id == consensus.RelayTimerID {
		n.ctr.fired.Add(1)
		n.relayFlushArmed = false
		if n.Relay != nil {
			n.Relay.Flush(now, func(to gcrypto.Address, env *consensus.Envelope) {
				n.Exec.Send(to, env)
			})
		}
		return
	}
	n.ctr.fired.Add(1)
	n.apply(now, n.Engine.OnTimer(now, id))
}

// armRelayFlush schedules a flush tick if the relay has queued entries
// and no tick is already pending.
func (n *Node) armRelayFlush(now consensus.Time) {
	if n.Relay == nil || n.relayFlushArmed || !n.Relay.HasPending() {
		return
	}
	n.relayFlushArmed = true
	n.Exec.SetTimer(consensus.RelayTimerID, n.Relay.FlushEvery())
}

// Submit injects a locally received transaction: through admission
// control (when configured), into the mempool and to the engine for
// proposal/forwarding. Admission failures return *RejectError carrying
// the reason and a retry-after hint.
func (n *Node) Submit(now consensus.Time, tx *types.Transaction) error {
	if n.halted != nil {
		return n.halted
	}
	if err := n.Admission.Admit(now, tx); err != nil {
		n.ctr.rejected.Add(1)
		return err
	}
	if err := n.App.SubmitTx(tx); err != nil {
		n.ctr.rejected.Add(1)
		return err
	}
	n.ctr.submitted.Add(1)
	n.apply(now, n.Engine.OnRequest(now, tx))
	return nil
}

// apply executes the actions an engine step produced. After CommitBlock
// actions have been applied to the chain, engines implementing
// consensus.CommitNotifiable get a follow-up step so they can propose
// on top of the new head. A halt drops the rest of the step.
func (n *Node) apply(now consensus.Time, acts []consensus.Action) {
	if n.halted != nil {
		return
	}
	committed := n.applyList(now, acts)
	for depth := 0; committed && depth < 4; depth++ {
		cn, ok := n.Engine.(consensus.CommitNotifiable)
		if !ok {
			break
		}
		committed = n.applyList(now, cn.OnCommitApplied(now))
	}
	n.armRelayFlush(now)
}

func (n *Node) applyList(now consensus.Time, acts []consensus.Action) (committed bool) {
	if n.Durable != nil {
		// The step's votes were logged, or refused, before it returned.
		if err := n.Durable.Err(); err != nil {
			n.halted = err
			return false
		}
	}
	for _, a := range acts {
		switch act := a.(type) {
		case consensus.Send:
			n.Exec.Send(act.To, act.Env)
		case consensus.Broadcast:
			// With gossip enabled, a committee broadcast is queued on the
			// relay instead of written to every peer: the next flush sends
			// one batched frame to a random fanout and the epidemic covers
			// the rest. An empty peer set (solo committee) falls back to
			// the direct path so nothing is blackholed.
			if n.Relay != nil && n.Relay.PeerCount() > 0 {
				n.Relay.Broadcast(now, act.Env)
				continue
			}
			for _, to := range act.To {
				n.Exec.Send(to, act.Env)
			}
		case consensus.CommitBlock:
			if !act.Applied {
				if err := n.App.Commit(act.Block); err != nil {
					// A block can arrive both via consensus and via block
					// sync; the second application is a benign duplicate.
					if !errors.Is(err, ledger.ErrDuplicateBlock) && n.CommitErr == nil {
						n.CommitErr = err
					}
					continue
				}
			}
			if n.Durable != nil {
				if err := n.Durable.Committed(act.Block); err != nil {
					n.halted = fmt.Errorf("persist height %d: %w", act.Block.Header.Height, err)
					return false
				}
			}
			committed = true
			n.ctr.committed.Add(1)
			n.ctr.lastHeight.Store(act.Block.Header.Height)
			if n.Admission != nil && n.App != nil {
				n.Admission.Observe(now, n.App.CommitLatency(now, act.Block))
			}
			if n.OnCommit != nil {
				n.OnCommit(now, act.Block)
			}
			if n.Relay != nil {
				n.Relay.Advance(now, act.Block.Header.Era, act.Block.Header.Height)
			}
		case consensus.StartTimer:
			n.Exec.SetTimer(act.ID, act.Delay)
		case consensus.StopTimer:
			n.Exec.CancelTimer(act.ID)
		case consensus.EraSwitched:
			if n.Relay != nil {
				n.Relay.SetPeers(act.Committee)
			}
			if n.Durable != nil {
				n.Durable.EraSwitched(n.App.Chain())
			}
			if n.OnEraSwitch != nil {
				n.OnEraSwitch(now, act.Era, act.Committee)
			}
		case consensus.SnapshotInstalled:
			n.ctr.lastHeight.Store(act.Height)
			if n.Durable != nil {
				n.Durable.SnapshotInstalled(act.Era, act.Height)
			}
		}
	}
	return committed
}
