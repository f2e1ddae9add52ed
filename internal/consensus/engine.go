package consensus

import (
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// Time is a timestamp relative to the start of the run. The simulator
// supplies virtual time; the real-time runner supplies time.Since(t0).
type Time = time.Duration

// TimerID identifies a pending timer set by an engine.
type TimerID uint64

// Action is an output of an engine step, executed by the runner.
type Action interface{ isAction() }

// Send transmits an envelope to one node.
type Send struct {
	To  gcrypto.Address
	Env *Envelope
}

// Broadcast transmits an envelope to every node in To (the engine
// decides the audience — usually the committee minus itself).
type Broadcast struct {
	To  []gcrypto.Address
	Env *Envelope
}

// CommitBlock delivers a decided block, in sequence order, for the
// runtime to append to the chain.
type CommitBlock struct {
	Block *types.Block
	// Applied marks a block the engine already applied to the chain
	// itself (the block-sync path): the runtime must still persist and
	// observe it, but must not apply it a second time.
	Applied bool
}

// StartTimer asks the runner to fire OnTimer(id) after Delay.
type StartTimer struct {
	ID    TimerID
	Delay time.Duration
}

// StopTimer cancels a pending timer; firing a stopped timer is a no-op
// for the runner, engines must also tolerate spurious fires.
type StopTimer struct {
	ID TimerID
}

// EraSwitched reports that the engine completed an era switch; the
// runtime uses it to re-register committee membership and metrics.
type EraSwitched struct {
	Era       uint64
	Committee []gcrypto.Address
}

// SnapshotInstalled reports that the engine replaced its chain state
// wholesale from a verified snapshot (fast sync): history below Height
// was never applied block-by-block on this node. The runtime uses it to
// reset persistence that mirrors per-block commits (block log, height
// counters) to the new base.
type SnapshotInstalled struct {
	Era    uint64
	Height uint64
}

func (Send) isAction()              {}
func (Broadcast) isAction()         {}
func (CommitBlock) isAction()       {}
func (StartTimer) isAction()        {}
func (StopTimer) isAction()         {}
func (EraSwitched) isAction()       {}
func (SnapshotInstalled) isAction() {}

// Engine is an event-driven consensus state machine.
type Engine interface {
	// Init starts the engine and returns its first actions (timers,
	// initial broadcasts).
	Init(now Time) []Action
	// OnEnvelope feeds a received message.
	OnEnvelope(now Time, env *Envelope) []Action
	// OnTimer fires a timer the engine previously started.
	OnTimer(now Time, id TimerID) []Action
	// OnRequest submits a transaction arriving at this node (from a
	// local client or forwarded by the runtime).
	OnRequest(now Time, tx *types.Transaction) []Action
}

// CommitNotifiable is implemented by engines that want a callback once
// the runtime has APPLIED committed blocks to the chain. The engine's
// own commit actions run before the chain advances, so a primary that
// proposes strictly on top of the committed head needs this second
// chance to keep the pipeline moving when no further input arrives.
type CommitNotifiable interface {
	OnCommitApplied(now Time) []Action
}
