package pbft

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// Defaults for engine tuning knobs.
const (
	// DefaultCheckpointInterval is K: a checkpoint every K executions;
	// the high watermark is lowWater + 2K.
	DefaultCheckpointInterval = 16
	// DefaultViewChangeTimeout is the progress timeout before a backup
	// starts a view change.
	DefaultViewChangeTimeout = 2 * time.Second
	// DefaultMaxInFlight is the pipelining depth: how many sequence
	// numbers may run their three phases concurrently. 1 is the serial
	// ablation (one full round trip per block, the pre-pipelining
	// behaviour).
	DefaultMaxInFlight = 8
)

// Application extends the consensus Application with the mempool
// surface the engine needs.
type Application interface {
	consensus.Application
	// SubmitTx adds a transaction to the pending pool; duplicates are
	// ignored. It returns an error only for invalid transactions.
	SubmitTx(tx *types.Transaction) error
	// PendingTxs reports how many transactions await inclusion.
	PendingTxs() int
	// PendingList returns up to max pending transactions (FIFO order);
	// the era layer hands them to the endorsers an era switch adds, and
	// the primary looks through a small backlog for control transactions.
	PendingList(max int) []types.Transaction
}

// SpeculativeApplication is the optional surface pipelined slots need:
// building and validating a block whose parent is an in-flight,
// not-yet-committed block rather than the chain head. Applications
// that do not implement it cap the engine at one in-flight slot
// regardless of MaxInFlight.
type SpeculativeApplication interface {
	// BuildBlockOn assembles the block at seq on top of parent,
	// skipping transactions whose ID is in exclude (they are already
	// packed into in-flight ancestors, but still sit in the pool until
	// they commit). Nil means nothing to propose.
	BuildBlockOn(now consensus.Time, era, view, seq uint64, parent *types.Block, exclude map[gcrypto.Hash]bool) *types.Block
	// ValidateBlockOn checks b as the immediate child of parent,
	// independent of the chain head.
	ValidateBlockOn(b, parent *types.Block) error
	// MinSpeculativeBatch is the fewest transactions BuildBlockOn packs:
	// with fewer pooled transactions outside exclude it returns nil. The
	// engine uses it to tell, from counts alone, when assembling the
	// exclusion set cannot lead to a block.
	MinSpeculativeBatch() int
}

// Config configures one PBFT engine instance (one era in G-PBFT).
type Config struct {
	Era       uint64
	Committee *consensus.Committee
	Key       *gcrypto.KeyPair
	App       Application
	Timers    *consensus.TimerAllocator
	// StartHeight is the first block height this instance decides
	// (current chain height + 1).
	StartHeight uint64
	// CheckpointInterval is K; zero selects the default.
	CheckpointInterval uint64
	// ViewChangeTimeout is the progress timeout; zero selects default.
	ViewChangeTimeout time.Duration
	// MaxInFlight bounds how many sequence numbers run concurrently
	// (clamped to the watermark window). Zero selects the default; 1 is
	// the serial ablation.
	MaxInFlight int
	// WAL, when set, receives every vote before it is sent
	// (persist-before-send); nil disables durability (tests, or
	// explicitly accepting equivocation risk across restarts).
	WAL WAL
	// Durable, when set, is the state recovered from the WAL of a
	// previous incarnation; the engine starts from it and refuses to
	// contradict any vote recorded there.
	Durable *DurableState
	// EvidenceSink, when set, receives self-verifying double-sign
	// proofs the engine assembles from conflicting votes it observes
	// (see accountability.go). Nil disables detection.
	EvidenceSink func(*evidence.Record)
}

func (c *Config) fill() {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = DefaultCheckpointInterval
	}
	if c.ViewChangeTimeout == 0 {
		c.ViewChangeTimeout = DefaultViewChangeTimeout
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.Timers == nil {
		c.Timers = consensus.NewTimerAllocator()
	}
}

// instance tracks one sequence number's progress through the phases.
type instance struct {
	view       uint64
	digest     gcrypto.Hash
	block      *types.Block
	prePrepare *consensus.Envelope
	prepares   map[gcrypto.Address]*consensus.Envelope
	commits    map[gcrypto.Address]*consensus.Envelope
	// matching counts the stored prepares whose digest equals the
	// accepted one; meaningful once prePrepare is set, and kept in step at
	// every insert so the prepared test never rescans the map.
	matching  int
	certVotes []types.Vote
	certSeen  map[gcrypto.Address]bool
	prepared  bool
	committed bool
	executed  bool
	// proposed marks a slot this replica proposed itself, as primary of
	// inst.view, at proposedAt; its execution then measures a round.
	proposed   bool
	proposedAt consensus.Time
}

func newInstance(view uint64) *instance {
	return &instance{
		view:     view,
		prepares: make(map[gcrypto.Address]*consensus.Envelope),
		commits:  make(map[gcrypto.Address]*consensus.Envelope),
		certSeen: make(map[gcrypto.Address]bool),
	}
}

// timer purposes
type timerPurpose uint8

const (
	timerProgress timerPurpose = iota + 1
	timerViewChange
	timerSlot
	timerHold
)

// Engine is one replica's PBFT state machine. It is not safe for
// concurrent use; the runner serializes events.
type Engine struct {
	cfg  Config
	self gcrypto.Address
	com  *consensus.Committee

	view         uint64
	lowWater     uint64 // last stable checkpoint seq
	execNext     uint64 // next seq to execute
	insts        map[uint64]*instance
	ownDigests   map[uint64]gcrypto.Hash // executed seq -> digest
	checkpoints  map[uint64]map[gcrypto.Address]gcrypto.Hash
	viewChanges  map[uint64]map[gcrypto.Address]*vcRecord
	inViewChange bool
	vcTarget     uint64 // view we are trying to reach while inViewChange
	halted       bool

	// newViewEnv is the NewView certificate that established the
	// current view (nil while still in view 0 or after WAL recovery).
	// It is retransmitted to replicas petitioning for stale views so a
	// restarted node can verify the jump to the committee's view.
	newViewEnv *consensus.Envelope

	timers       map[consensus.TimerID]timerPurpose
	progressTID  consensus.TimerID
	vcTID        consensus.TimerID
	vcRetryDelay time.Duration

	// Per-slot progress timers: every accepted proposal gets its own
	// deadline, so an earlier slot's progress can never mask a leader
	// stalling a later one. slotTimers maps seq -> timer, timerSlots the
	// reverse.
	slotTimers map[uint64]consensus.TimerID
	timerSlots map[consensus.TimerID]uint64

	// Pipelining: the in-flight depth negotiated from Config, the
	// optional speculative application surface, and the deterministic
	// hold-back buffer for messages just above the acceptance window
	// (votes ahead of the watermarks, pre-prepares whose parent has not
	// arrived yet). draining guards re-entrant drains.
	maxInFlight int
	spec        SpeculativeApplication
	pendingMsgs map[uint64][]*consensus.Envelope
	draining    bool

	// Durable vote ledgers: every vote this incarnation (or, after
	// recovery, any previous incarnation) may have sent, keyed by
	// (view, seq). Consulted before sending; backed by wal when set.
	wal             WAL
	sentPrePrepares map[voteKey]gcrypto.Hash
	sentPrepares    map[voteKey]gcrypto.Hash
	sentCommits     map[voteKey]gcrypto.Hash

	// Accountability: first vote seen per (kind, view, seq, sender) and
	// the senders already reported this era. Nil maps when detection is
	// disabled (no EvidenceSink).
	seenVotes map[seenSlot]seenVote
	accused   map[gcrypto.Address]bool

	// held lists the transactions that entered this replica's pool while
	// a view change kept it from relaying them, and that no other replica
	// may know: a local submission, or a non-member's single send. A
	// relay from a fellow member is never held — its sender broadcast it
	// to everyone. enterNewView relays each once; the list needs no cap,
	// every entry passed pool admission.
	held []types.Transaction

	// Proposal policy (see holdHead): lastRound is the propose-to-execute
	// time of the own slot that has just executed, until the
	// OnCommitApplied that follows consumes it; holdTID is the timer of a
	// head block being held, zero when none is.
	lastRound time.Duration
	holdTID   consensus.TimerID

	// stats
	executedBlocks uint64
	viewChangesFin uint64
	counts         Counts // since the last TakeCounts
}

type vcRecord struct {
	msg *ViewChange
	env *consensus.Envelope
}

// Errors surfaced by the engine.
var (
	ErrHalted    = errors.New("pbft: engine halted")
	ErrNotMember = errors.New("pbft: sender is not a committee member")
)

// New constructs a replica engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Committee == nil || cfg.Key == nil || cfg.App == nil {
		return nil, errors.New("pbft: config needs Committee, Key and App")
	}
	cfg.fill()
	if !cfg.Committee.IsMember(cfg.Key.Address()) {
		return nil, fmt.Errorf("pbft: self %s not in committee", cfg.Key.Address().Short())
	}
	e := &Engine{
		cfg:             cfg,
		self:            cfg.Key.Address(),
		com:             cfg.Committee,
		lowWater:        cfg.StartHeight - 1,
		execNext:        cfg.StartHeight,
		insts:           make(map[uint64]*instance),
		ownDigests:      make(map[uint64]gcrypto.Hash),
		checkpoints:     make(map[uint64]map[gcrypto.Address]gcrypto.Hash),
		viewChanges:     make(map[uint64]map[gcrypto.Address]*vcRecord),
		timers:          make(map[consensus.TimerID]timerPurpose),
		slotTimers:      make(map[uint64]consensus.TimerID),
		timerSlots:      make(map[consensus.TimerID]uint64),
		vcRetryDelay:    cfg.ViewChangeTimeout,
		maxInFlight:     cfg.MaxInFlight,
		pendingMsgs:     make(map[uint64][]*consensus.Envelope),
		wal:             cfg.WAL,
		sentPrePrepares: make(map[voteKey]gcrypto.Hash),
		sentPrepares:    make(map[voteKey]gcrypto.Hash),
		sentCommits:     make(map[voteKey]gcrypto.Hash),
	}
	e.spec, _ = cfg.App.(SpeculativeApplication)
	if cfg.EvidenceSink != nil {
		e.seenVotes = make(map[seenSlot]seenVote)
		e.accused = make(map[gcrypto.Address]bool)
	}
	e.restoreDurable(cfg.Durable)
	return e, nil
}

// --- accessors ---

// View returns the current view number.
func (e *Engine) View() uint64 { return e.view }

// Era returns the configured era.
func (e *Engine) Era() uint64 { return e.cfg.Era }

// Committee returns the instance's committee.
func (e *Engine) Committee() *consensus.Committee { return e.com }

// Primary returns the current primary's address.
func (e *Engine) Primary() gcrypto.Address { return e.com.Primary(e.view) }

// IsPrimary reports whether this replica leads the current view.
func (e *Engine) IsPrimary() bool { return e.Primary() == e.self }

// InViewChange reports whether a view change is in progress.
func (e *Engine) InViewChange() bool { return e.inViewChange }

// NextSeq returns the next sequence number awaiting execution.
func (e *Engine) NextSeq() uint64 { return e.execNext }

// LowWater returns the last stable checkpoint sequence.
func (e *Engine) LowWater() uint64 { return e.lowWater }

// ExecutedBlocks returns how many blocks this replica has executed.
func (e *Engine) ExecutedBlocks() uint64 { return e.executedBlocks }

// InFlight reports how many sequence numbers currently have a proposed
// but not yet executed instance, and the configured pipelining depth.
// The load-shed controller uses the ratio as a saturation signal.
func (e *Engine) InFlight() (used, depth int) {
	for _, inst := range e.insts {
		if inst.prePrepare != nil && !inst.executed {
			used++
		}
	}
	return used, e.maxInFlight
}

// BeyondWindow reports whether seq lies beyond the pipelining depth
// above the slot this replica executes next. No correct primary proposes
// that far ahead of a replica that keeps up, so a vote for such a slot
// shows the replica has fallen behind rather than being ordinary
// pipelined traffic.
func (e *Engine) BeyondWindow(seq uint64) bool {
	return seq >= e.execNext+uint64(e.maxInFlight)
}

// HasProposal reports whether this replica holds an accepted proposal
// for seq.
func (e *Engine) HasProposal(seq uint64) bool {
	inst := e.insts[seq]
	return inst != nil && inst.prePrepare != nil
}

// Counts is what an engine did since the previous TakeCounts. The vote
// fast path: VotesVerified counts seal checks on prepares, commits and
// checkpoints (each vote once, when it first entered engine state),
// VotesSurplus the votes dropped unverified because their phase already
// held its quorum or their slot was already stable. The request path
// across a view change: RequestsHeld counts transactions pooled without
// a relay (see Engine.held), RequestsRerelayed those relayed on entering
// the new view; the two are equal once the view change has completed.
// The proposal policy: ProposalsHeld counts the under-full head blocks
// the primary held back (see maybePropose), ProposalsHeldFired those
// whose hold ran its full time instead of ending early on a fuller pool.
type Counts struct {
	VotesVerified, VotesSurplus       uint64
	RequestsHeld, RequestsRerelayed   uint64
	ProposalsHeld, ProposalsHeldFired uint64
}

// TakeCounts reads and resets the engine's counters. The era layer folds
// them into totals that outlive this instance.
func (e *Engine) TakeCounts() Counts {
	c := e.counts
	e.counts = Counts{}
	return c
}

// CompletedViewChanges returns how many view changes this replica has
// completed.
func (e *Engine) CompletedViewChanges() uint64 { return e.viewChangesFin }

// Halted reports whether the engine has been stopped.
func (e *Engine) Halted() bool { return e.halted }

// Halt stops the engine; all further events are ignored. G-PBFT calls
// this at the start of an era switch ("G-PBFT asks each endorser to
// halt the old consensus before era switch", Section IV-A2).
func (e *Engine) Halt() { e.halted = true }

// highWater returns the top of the sequence window.
func (e *Engine) highWater() uint64 {
	return e.lowWater + 2*e.cfg.CheckpointInterval
}

// --- lifecycle ---

// Init arms the initial proposal attempt. A recovered engine first
// re-sends the commit votes it owes for instances that were prepared
// when it crashed.
func (e *Engine) Init(now consensus.Time) []consensus.Action {
	if e.halted {
		return nil
	}
	var acts []consensus.Action
	acts = e.resendRecoveredVotes(acts)
	acts = e.maybePropose(now, acts)
	acts = e.ensureProgressTimer(acts)
	return acts
}

// AdvanceTo informs the engine that the runtime applied synced blocks
// up to and including height seq; local instances at or below it are
// dropped.
func (e *Engine) AdvanceTo(now consensus.Time, seq uint64) []consensus.Action {
	if e.halted || seq < e.execNext {
		return nil
	}
	var acts []consensus.Action
	for s := e.execNext; s <= seq; s++ {
		acts = e.stopSlotTimer(s, acts)
		delete(e.insts, s)
	}
	e.execNext = seq + 1
	if seq > e.lowWater {
		e.lowWater = seq
		e.pruneSentVotes(seq)
		e.pruneSeenVotes(seq)
	}
	// Synced-past slots count as executed parents: a child slot whose
	// commit was held back waiting for them can release it now.
	acts = e.maybeSendCommit(now, e.execNext, acts)
	acts = e.maybePropose(now, acts)
	acts = e.drainBuffered(now, acts)
	acts = e.ensureProgressTimer(acts)
	return acts
}

// OnCommitApplied implements consensus.CommitNotifiable: once the
// runtime has applied committed blocks to the chain, the primary can
// propose on top of the new head (BuildBlock declines while the head
// still lags the engine's sequence).
func (e *Engine) OnCommitApplied(now consensus.Time) []consensus.Action {
	if e.halted {
		return nil
	}
	var acts []consensus.Action
	acts = e.holdHead(acts)
	acts = e.maybePropose(now, acts)
	acts = e.ensureProgressTimer(acts)
	return acts
}

// OnRequest handles a transaction submitted locally (the runtime has
// already added it to the mempool). The endorser relays the request to
// the whole committee: every replica must know about outstanding work
// so that f+1 of them can corroborate a view change when the primary
// stalls — the request-multicast fallback of PBFT, and the paper's
// "a client will send the transaction to multiple endorsers".
func (e *Engine) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	if e.halted {
		return nil
	}
	acts := e.relayOrHold(tx, nil)
	if e.IsPrimary() {
		acts = e.maybePropose(now, acts)
	}
	acts = e.ensureProgressTimer(acts)
	return acts
}

// relayOrHold announces a transaction only this replica may know to the
// committee. During a view change it remembers it instead, for
// enterNewView to announce: a replica between views may be cut off from
// the others — most view changes begin that way — and the new view's
// certificate is the proof that the committee hears it again.
//
// The primary gets its copy by a send of its own, ahead of the
// broadcast to the rest: a broadcast may travel by epidemic relay, which
// reaches every member only with high probability, and the one member a
// request must not miss is the one that proposes it — the others would
// sit on it for a whole progress timeout and then change views.
func (e *Engine) relayOrHold(tx *types.Transaction, acts []consensus.Action) []consensus.Action {
	if e.inViewChange {
		e.held = append(e.held, *tx)
		e.counts.RequestsHeld++
		return acts
	}
	env := consensus.Seal(e.cfg.Key, &Request{Tx: *tx})
	rest := e.com.Others(e.self)
	if primary := e.com.Primary(e.view); primary != e.self {
		acts = append(acts, consensus.Send{To: primary, Env: env})
		for i, addr := range rest {
			if addr == primary {
				rest = append(rest[:i], rest[i+1:]...)
				break
			}
		}
	}
	return append(acts, consensus.Broadcast{To: rest, Env: env})
}

// relayHeld announces the transactions held through the view change,
// once each.
func (e *Engine) relayHeld(acts []consensus.Action) []consensus.Action {
	held := e.held
	e.held = nil
	for i := range held {
		e.counts.RequestsRerelayed++
		acts = e.relayOrHold(&held[i], acts)
	}
	return acts
}

// OnTimer dispatches a timer firing.
func (e *Engine) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	if e.halted {
		return nil
	}
	purpose, ok := e.timers[id]
	if !ok {
		return nil // stale timer
	}
	delete(e.timers, id)
	switch purpose {
	case timerProgress:
		if id != e.progressTID {
			return nil
		}
		e.progressTID = 0
		// No progress on outstanding work: suspect the primary.
		if e.hasOutstandingWork() {
			return e.startViewChange(now, e.view+1)
		}
		return nil
	case timerSlot:
		seq, ok := e.timerSlots[id]
		if !ok {
			return nil
		}
		delete(e.timerSlots, id)
		delete(e.slotTimers, seq)
		if e.inViewChange || seq < e.execNext {
			return nil
		}
		if inst := e.insts[seq]; inst != nil && inst.prePrepare != nil && !inst.executed {
			// One specific slot ran out of patience: depose the primary.
			return e.startViewChange(now, e.view+1)
		}
		return nil
	case timerViewChange:
		if id != e.vcTID {
			return nil
		}
		e.vcTID = 0
		if e.inViewChange {
			// The view change itself stalled; escalate to the next view
			// with doubled patience (exponential backoff, as in PBFT),
			// capped so a long outage cannot push the retry horizon out
			// indefinitely.
			if e.vcRetryDelay < time.Minute {
				e.vcRetryDelay *= 2
			}
			return e.startViewChange(now, e.vcTarget+1)
		}
		return nil
	case timerHold:
		// The held head block waited its round: propose what there is.
		e.holdTID = 0
		e.counts.ProposalsHeldFired++
		return e.ensureProgressTimer(e.maybePropose(now, nil))
	}
	return nil
}

// OnEnvelope dispatches a received protocol message.
func (e *Engine) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	if e.halted {
		return nil
	}
	switch env.MsgKind {
	case consensus.KindRequest:
		return e.onRequestEnv(now, env)
	case consensus.KindPrePrepare:
		return e.onPrePrepare(now, env)
	case consensus.KindPrepare:
		return e.onPrepare(now, env)
	case consensus.KindCommit:
		return e.onCommit(now, env)
	case consensus.KindCheckpoint:
		return e.onCheckpoint(now, env)
	case consensus.KindViewChange:
		return e.onViewChange(now, env)
	case consensus.KindNewView:
		return e.onNewView(now, env)
	default:
		return nil
	}
}

// --- normal case ---

// OpenRequest decodes a request envelope and checks the transaction it
// carries.
func OpenRequest(env *consensus.Envelope) (*types.Transaction, error) {
	// OpenUnverified: a request envelope is a transport wrapper, not a
	// vote — authenticity comes from the transaction's own signature
	// (checked right below, memoized), so the relayer's seal is not
	// verified. A forged From can at most trigger one extra relay round
	// (member relays are terminal), the same exposure an unattributed
	// client submission already has; a tampered body fails the
	// transaction check. The serial ablation baseline re-enables the
	// seal check to reproduce the seed's verification stack.
	open := consensus.OpenUnverified
	if consensus.RequestSealCheck() {
		open = consensus.Open
	}
	var req Request
	if err := open(env, consensus.KindRequest, &req); err != nil {
		return nil, err
	}
	// VerifyCached: a relayed transaction has usually already been
	// verified once on this node (local submission or an earlier relay),
	// so the ed25519 check is memoized.
	if err := req.Tx.VerifyCached(); err != nil {
		return nil, err
	}
	return &req.Tx, nil
}

func (e *Engine) onRequestEnv(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	tx, err := OpenRequest(env)
	if err != nil {
		return nil
	}
	if err := e.cfg.App.SubmitTx(tx); err != nil {
		return nil
	}
	var acts []consensus.Action
	if !e.com.IsMember(env.From) {
		// Direct client submission: relay to the committee (a relay
		// from a fellow member is terminal — no re-broadcast loops).
		acts = e.relayOrHold(tx, acts)
	}
	if e.IsPrimary() {
		acts = e.maybePropose(now, acts)
	}
	acts = e.ensureProgressTimer(acts)
	return acts
}

// maybePropose issues pre-prepares when this replica is the primary:
// one for every unproposed slot from execNext up to the pipelining
// depth (bounded by the high watermark). Slot execNext extends the
// applied chain head; later slots are built speculatively on their
// in-flight predecessor, so the window always forms a hash chain.
//
// Every slot is proposed as soon as it can be built, with one exception
// (DESIGN.md 5l): a head block that holdHead is holding back waits until
// the pool is no longer under-full or the hold's timer fires.
func (e *Engine) maybePropose(now consensus.Time, acts []consensus.Action) []consensus.Action {
	if e.inViewChange || !e.IsPrimary() {
		return acts
	}
	maxSeq := e.execNext + uint64(e.maxInFlight) - 1
	if hw := e.highWater(); maxSeq > hw {
		maxSeq = hw
	}
	// A quorum checkpoint can stabilize while this replica's execution
	// still lags it (the synced blocks are in flight): those slots are
	// final, their instances and sent-vote guards are pruned, and
	// re-proposing one would rebuild a different block from today's pool
	// and equivocate against our own earlier pre-prepare. Stay silent
	// below the stable checkpoint; sync moves execNext past it.
	seqStart := e.execNext
	if seqStart <= e.lowWater {
		seqStart = e.lowWater + 1
	}
	for seq := seqStart; seq <= maxSeq; seq++ {
		if inst := e.insts[seq]; inst != nil && inst.view == e.view && inst.prePrepare != nil {
			continue // already proposed in this view
		}
		if e.holdTID != 0 {
			if e.underfull() {
				break
			}
			acts = e.endHold(acts)
		}
		block := e.buildAt(now, seq)
		if block == nil {
			// Nothing to build here; later slots would lack a parent.
			break
		}
		// Persist-before-send. A restarted primary that already proposed a
		// DIFFERENT block at this (view, seq) must stay silent rather than
		// equivocate — liveness then comes from the other replicas' view
		// change, not from a second conflicting proposal.
		if !e.recordVote(store.WALPrePrepare, e.sentPrePrepares, e.view, seq, block.Hash(), nil) {
			break
		}
		pp := &PrePrepare{
			SlotHeader: consensus.SlotHeader{Era: e.cfg.Era, View: e.view, Seq: seq, Digest: block.Hash()},
			Block:      *block,
		}
		env := consensus.Seal(e.cfg.Key, pp)
		acts = append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: env})
		acts = e.acceptPrePrepare(now, pp, env, acts)
		if inst := e.insts[seq]; inst != nil {
			inst.proposed, inst.proposedAt = true, now
		}
	}
	return acts
}

// holdHead runs when this replica's commits have been applied, so the
// pool shows what the round that just ended left behind. A round costs
// every replica ~4f vote verifications whatever its block carries, and
// one signature check per transaction: a backlog of fewer than f
// transactions does not pay for a round of its own, and proposing it
// back to back is how a busy committee spends its whole CPU on blocks
// of two or three transactions. The primary therefore lets such a
// backlog wait for company. How long comes from the round it has just
// measured, propose to execute: the backlog gathered while that round
// ran, so it is half a round old on average, and it waits as long again
// — half the round. (A whole round packs more and costs a tenth more
// latency at the median and the tail, DESIGN.md 5l.) An empty pool arms
// nothing: the next arrival finds no hold and is proposed at once.
//
// The hold is also capped at a quarter of the progress timeout, so that
// a request waits at most round + hold + round and no backup's progress
// timer fires on a request that is merely held.
func (e *Engine) holdHead(acts []consensus.Action) []consensus.Action {
	round := e.lastRound
	e.lastRound = 0
	if round <= 0 || !e.underfull() {
		return acts
	}
	hold := round / 2
	if max := e.cfg.ViewChangeTimeout / 4; hold > max {
		hold = max
	}
	e.holdTID = e.cfg.Timers.Next()
	e.timers[e.holdTID] = timerHold
	e.counts.ProposalsHeld++
	return append(acts, consensus.StartTimer{ID: e.holdTID, Delay: hold})
}

// underfull reports whether the pool holds a backlog too small to pay
// for a round: some transactions, fewer than min(f, base batch), and
// none of them control-lane (an era switch, evidence or a checkpoint
// never waits for company). At n = 4, f = 1 and no backlog is under-full.
func (e *Engine) underfull() bool {
	limit := e.com.F()
	if e.spec != nil && e.spec.MinSpeculativeBatch() < limit {
		limit = e.spec.MinSpeculativeBatch()
	}
	n := e.cfg.App.PendingTxs()
	if n == 0 || n >= limit {
		return false
	}
	for _, tx := range e.cfg.App.PendingList(n) {
		if tx.Type.Control() {
			return false
		}
	}
	return true
}

// endHold forgets the measured round and releases a held head block, if
// there is one; what happens to the block is the caller's business.
func (e *Engine) endHold(acts []consensus.Action) []consensus.Action {
	e.lastRound = 0
	if e.holdTID == 0 {
		return acts
	}
	acts = append(acts, consensus.StopTimer{ID: e.holdTID})
	delete(e.timers, e.holdTID)
	e.holdTID = 0
	return acts
}

// buildAt assembles the block for one slot: through the ordinary
// Application when the slot extends the applied chain head, otherwise
// speculatively on the retained predecessor block.
func (e *Engine) buildAt(now consensus.Time, seq uint64) *types.Block {
	if b := e.cfg.App.BuildBlock(now, e.cfg.Era, e.view, seq); b != nil {
		return b
	}
	if e.spec == nil {
		return nil
	}
	parent := e.parentBlock(seq)
	if parent == nil {
		return nil
	}
	// Count before hashing. This replica's own unexecuted proposals were
	// packed from its pool and stay there until they commit, so the pool
	// holds at most PendingTxs minus their transactions for a new block;
	// below a full batch BuildBlockOn would decline, and the exclusion
	// set (a SHA-256 per in-flight transaction) need not be built to hear
	// it say so. A primary runs this on every relayed request.
	packed := 0
	for s := e.execNext; s < seq; s++ {
		if inst := e.insts[s]; inst != nil && inst.block != nil && !inst.executed && inst.block.Header.Proposer == e.self {
			packed += len(inst.block.Txs)
		}
	}
	if e.cfg.App.PendingTxs()-packed < e.spec.MinSpeculativeBatch() {
		return nil
	}
	// Exclude everything packed below seq — including executed blocks
	// whose CommitBlock action has not been applied yet — because those
	// transactions still sit in the pool.
	return e.spec.BuildBlockOn(now, e.cfg.Era, e.view, seq, parent, e.exclusionRange(e.lowWater+1, seq))
}

// parentBlock returns the block occupying slot seq-1 if this replica
// holds it (in flight, or executed and not yet pruned by a checkpoint).
func (e *Engine) parentBlock(seq uint64) *types.Block {
	if seq == 0 {
		return nil
	}
	inst := e.insts[seq-1]
	if inst == nil || inst.block == nil || inst.block.Header.Seq != seq-1 {
		return nil
	}
	return inst.block
}

// exclusionRange collects the tx IDs packed into retained blocks in
// [from, seq): in-flight transactions stay pooled until their block is
// applied, so speculative builders and validators must skip them
// explicitly to keep every transaction exactly-once.
func (e *Engine) exclusionRange(from, seq uint64) map[gcrypto.Hash]bool {
	excl := make(map[gcrypto.Hash]bool)
	for s := from; s < seq; s++ {
		inst := e.insts[s]
		if inst == nil || inst.block == nil {
			continue
		}
		for i := range inst.block.Txs {
			excl[inst.block.Txs[i].ID()] = true
		}
	}
	return excl
}

func (e *Engine) onPrePrepare(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var pp PrePrepare
	if err := consensus.Open(env, consensus.KindPrePrepare, &pp); err != nil {
		return nil
	}
	if pp.Era != e.cfg.Era || env.From != e.com.Primary(pp.View) {
		return nil // only the view's primary may pre-prepare
	}
	if pp.Seq < e.execNext {
		return nil // already executed locally
	}
	if e.inViewChange && pp.View == e.vcTarget && pp.Seq < e.execNext+uint64(e.maxInFlight) {
		// The new primary sends NewView and then its first proposals; on a
		// link that reorders, a proposal overtakes the certificate. Hold one
		// window of them for enterNewView's drain — dropping one costs
		// another view change.
		return e.bufferVote(pp.Seq, env)
	}
	if e.inViewChange || pp.View != e.view {
		return nil
	}
	if pp.Seq >= e.execNext+uint64(e.maxInFlight) || pp.Seq > e.highWater() {
		// Ahead of the pipelining window: hold it back deterministically
		// rather than dropping — it becomes acceptable as the window
		// advances (or is discarded once it can never be).
		return e.bufferVote(pp.Seq, env)
	}
	e.noteVote(env, &pp.SlotHeader)
	if pp.Digest != pp.Block.Hash() {
		return nil
	}
	// The block header records the view it was ORIGINALLY proposed in:
	// a pre-prepare re-issued after a view change keeps the old header
	// (the prepared value must not change), so require header.View <=
	// message view and that the header's proposer was that view's
	// primary.
	hdr := &pp.Block.Header
	if hdr.Era != pp.Era || hdr.View > pp.View || hdr.Seq != pp.Seq ||
		hdr.Proposer != e.com.Primary(hdr.View) {
		return nil
	}
	if inst := e.insts[pp.Seq]; inst != nil && inst.view == pp.View &&
		inst.prePrepare != nil && inst.digest != pp.Digest {
		// Equivocating primary: two different proposals for one
		// (view, seq). Refuse; the progress timer will depose it.
		return nil
	}
	if err := e.cfg.App.ValidateBlock(&pp.Block); err != nil {
		// Not a child of the applied chain head. For a pipelined slot the
		// real parent is the retained predecessor block — in flight, or
		// executed but not yet applied to the chain — so validate against
		// it, or hold the proposal until it arrives. Only when the parent
		// IS the applied head (no retained block) was the head validation
		// authoritative.
		if e.spec == nil {
			return nil
		}
		parent := e.parentBlock(pp.Seq)
		if parent == nil {
			if pp.Seq == e.execNext {
				return nil
			}
			return e.bufferVote(pp.Seq, env)
		}
		if err := e.spec.ValidateBlockOn(&pp.Block, parent); err != nil {
			return nil
		}
		// Exactly-once across the window: refuse a proposal re-packing a
		// transaction an in-flight ancestor already carries.
		excl := e.exclusionRange(e.execNext, pp.Seq)
		for i := range pp.Block.Txs {
			if excl[pp.Block.Txs[i].ID()] {
				return nil
			}
		}
	}
	// Persist-before-send: if a previous incarnation already prepared a
	// different digest at this (view, seq), refuse the whole proposal —
	// accepting it would walk this replica into contradicting a prepare
	// that may already be on the wire.
	if !e.recordVote(store.WALPrepare, e.sentPrepares, pp.View, pp.Seq, pp.Digest, nil) {
		return nil
	}
	var acts []consensus.Action
	acts = e.acceptPrePrepare(now, &pp, env, acts)
	// Accepting can complete the slot on the spot: recovered prepares
	// and raced-ahead commits may already form certificates, and the
	// resulting execution + checkpoint stabilization prunes the
	// instance. Only a still-live slot needs this backup's own prepare.
	if inst := e.insts[pp.Seq]; inst != nil {
		// A backup that accepts multicasts prepare to all others.
		prep := &Prepare{pp.SlotHeader}
		prepEnv := consensus.Seal(e.cfg.Key, prep)
		acts = append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: prepEnv})
		// A pre-prepare delivered twice (retransmission, replay) reaches
		// this point again with the own prepare already counted.
		if inst.prepares[e.self] == nil {
			inst.matching++
		}
		inst.prepares[e.self] = prepEnv
		acts = e.maybePrepared(now, pp.Seq, acts)
	}
	acts = e.drainBuffered(now, acts)
	acts = e.ensureProgressTimer(acts)
	return acts
}

// acceptPrePrepare installs the proposal into the instance log.
func (e *Engine) acceptPrePrepare(now consensus.Time, pp *PrePrepare, env *consensus.Envelope, acts []consensus.Action) []consensus.Action {
	inst := e.insts[pp.Seq]
	if inst == nil || inst.view != pp.View {
		inst = newInstance(pp.View)
		e.insts[pp.Seq] = inst
	}
	inst.digest = pp.Digest
	block := pp.Block
	inst.block = &block
	inst.prePrepare = env
	// Every accepted proposal gets its own deadline so an earlier slot's
	// progress can never mask a primary stalling a later one.
	acts = e.armSlotTimer(pp.Seq, acts)
	// Votes that raced ahead of the pre-prepare can now be judged against
	// the accepted digest: prepares join the matching count, commits
	// become certificate votes. Stored envelopes were verified before they
	// were stored, so decoding is all that is left.
	inst.matching = 0
	for _, penv := range inst.prepares {
		var p Prepare
		if consensus.OpenUnverified(penv, consensus.KindPrepare, &p) == nil && p.Digest == inst.digest {
			inst.matching++
		}
	}
	for _, cenv := range inst.commits {
		var c Commit
		if consensus.OpenUnverified(cenv, consensus.KindCommit, &c) == nil {
			e.recordCommitVote(inst, cenv, &c)
		}
	}
	return e.maybePrepared(now, pp.Seq, acts)
}

// admitVote judges a prepare or commit from its decoded but still
// unverified body. The invariant it keeps for the vote handlers: a
// vote's seal is checked exactly when the vote is about to enter engine
// state (the instance log, the hold-back buffer, the seen-vote index),
// and nothing unverified is ever stored. Everything that can rule a
// vote out without the seal runs first, so the ed25519 check is paid
// only for votes that can still count.
//
// A vote is surplus when it agrees with the slot's accepted digest and
// its phase already holds its quorum (or the slot is at or below the
// stable checkpoint): storing it could never change an outcome, so it
// is dropped unverified. The exception keeps accountability whole — if
// the sender is already on record for this slot with a different
// digest, the vote is verified and cross-checked as before, so a
// double-sign is still proven no matter how late its second half
// arrives. What is given up is only the late vote that agrees both with
// the accepted digest and with everything its sender was seen to say.
func (e *Engine) admitVote(env *consensus.Envelope, h *consensus.SlotHeader) bool {
	if h.Era != e.cfg.Era || !e.com.IsMember(env.From) {
		return false
	}
	if h.View != e.view || e.inViewChange {
		return false
	}
	if h.Seq <= e.lowWater {
		e.countVote(&e.counts.VotesSurplus)
		return false
	}
	prev, seen := e.seenVotes[seenSlot{kind: env.MsgKind, view: h.View, seq: h.Seq, from: env.From}]
	if seen && prev.digest == h.Digest {
		return false // retransmission of a vote already on record
	}
	if inst := e.insts[h.Seq]; !seen && inst != nil && inst.view == h.View {
		stored, full := inst.prepares, inst.prepared
		if env.MsgKind == consensus.KindCommit {
			stored, full = inst.commits, len(inst.certVotes) >= e.com.Quorum()
		}
		if stored[env.From] != nil {
			return false // the sender's slot is taken
		}
		if full && inst.prePrepare != nil && inst.digest == h.Digest {
			e.countVote(&e.counts.VotesSurplus)
			return false
		}
	}
	if env.Verify() != nil {
		return false
	}
	e.countVote(&e.counts.VotesVerified)
	return true
}

// countVote counts a vote's fate once: a vote redelivered from the
// hold-back buffer was verified, and counted, when it was buffered.
func (e *Engine) countVote(counter *uint64) {
	if !e.draining {
		*counter++
	}
}

func (e *Engine) onPrepare(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var p Prepare
	if err := consensus.OpenUnverified(env, consensus.KindPrepare, &p); err != nil {
		return nil
	}
	if env.From == e.com.Primary(p.View) {
		// The primary's vote is its pre-prepare. A prepare from it counts
		// toward no prepared proof (proofForInstance, verifyPreparedProof),
		// so it must not count toward the 2f here either: a Byzantine
		// primary would buy a quorum one honest vote short.
		return nil
	}
	if !e.admitVote(env, &p.SlotHeader) {
		return nil
	}
	if p.Seq > e.highWater() {
		return e.bufferVote(p.Seq, env)
	}
	// Cross-check before the conflicting/duplicate drops below: those
	// would silently discard exactly the vote that proves a double-sign.
	e.noteVote(env, &p.SlotHeader)
	inst := e.insts[p.Seq]
	if inst == nil || inst.view != p.View {
		inst = newInstance(p.View)
		e.insts[p.Seq] = inst
	}
	if inst.prePrepare != nil && inst.digest != p.Digest {
		return nil // prepare for a different proposal
	}
	if _, dup := inst.prepares[env.From]; dup {
		return nil
	}
	inst.prepares[env.From] = env
	if inst.prePrepare != nil {
		inst.matching++
	}
	return e.maybePrepared(now, p.Seq, nil)
}

// maybePrepared fires when the instance holds the pre-prepare plus 2f
// prepares from distinct replicas (the primary's pre-prepare standing
// in for its prepare).
func (e *Engine) maybePrepared(now consensus.Time, seq uint64, acts []consensus.Action) []consensus.Action {
	inst := e.insts[seq]
	if inst == nil || inst.prePrepare == nil {
		return acts
	}
	if !inst.prepared {
		// pre-prepare (primary) + (quorum-1) prepares = quorum distinct
		// replicas.
		if inst.matching < e.com.Quorum()-1 {
			return acts
		}
		// Make the prepared certificate durable first (a replica that
		// forgets a prepared value breaks view-change safety), then log
		// the commit vote. Either append failing suppresses the commit.
		if !e.persistPrepared(seq, inst) {
			return acts
		}
		inst.prepared = true
	}
	acts = e.maybeSendCommit(now, seq, acts)
	// This slot preparing may release the deferred commit of its child.
	return e.maybeSendCommit(now, seq+1, acts)
}

// maybeSendCommit broadcasts our commit for seq once the slot is
// prepared AND its parent slot is prepared or executed locally. The
// parent gate is the pipelining safety invariant: a commit quorum for
// any block implies 2f+1 replicas hold prepared proofs for its whole
// ancestor chain, so every view-change quorum can re-exhibit (and
// re-issue) the ancestors of anything that may have committed.
func (e *Engine) maybeSendCommit(now consensus.Time, seq uint64, acts []consensus.Action) []consensus.Action {
	inst := e.insts[seq]
	if inst == nil || !inst.prepared || inst.executed {
		return acts
	}
	if inst.commits[e.self] != nil {
		// Commit already out; just re-check the tally.
		return e.maybeCommitted(now, seq, acts)
	}
	if !e.parentPrepared(seq) {
		return acts // deferred until the parent prepares
	}
	if !e.commitPromised(inst, seq) {
		return acts
	}
	acts = e.sendOwnCommit(inst, seq, acts)
	acts = e.maybeCommitted(now, seq, acts)
	// Releasing this commit may unblock the child's deferred one.
	return e.maybeSendCommit(now, seq+1, acts)
}

// sendOwnCommit seals and broadcasts this replica's commit for a
// prepared instance and tallies it as a certificate vote: one signature
// is both. The vote is valid by construction — this replica is a member
// and just signed the accepted digest.
func (e *Engine) sendOwnCommit(inst *instance, seq uint64, acts []consensus.Action) []consensus.Action {
	c := &Commit{consensus.SlotHeader{Era: e.cfg.Era, View: inst.view, Seq: seq, Digest: inst.digest}}
	cenv := consensus.Seal(e.cfg.Key, c)
	inst.commits[e.self] = cenv
	e.recordCommitVote(inst, cenv, c)
	return append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: cenv})
}

// parentPrepared reports whether seq's predecessor is prepared or
// executed locally (slots below execNext count as executed).
func (e *Engine) parentPrepared(seq uint64) bool {
	if seq <= e.execNext {
		return true
	}
	inst := e.insts[seq-1]
	return inst != nil && (inst.prepared || inst.executed)
}

func (e *Engine) onCommit(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var c Commit
	if err := consensus.OpenUnverified(env, consensus.KindCommit, &c); err != nil {
		return nil
	}
	if !e.admitVote(env, &c.SlotHeader) {
		return nil
	}
	if c.Seq > e.highWater() {
		return e.bufferVote(c.Seq, env)
	}
	e.noteVote(env, &c.SlotHeader)
	inst := e.insts[c.Seq]
	if inst == nil || inst.view != c.View {
		inst = newInstance(c.View)
		e.insts[c.Seq] = inst
	}
	if inst.prePrepare != nil && inst.digest != c.Digest {
		return nil
	}
	if _, dup := inst.commits[env.From]; dup {
		return nil
	}
	inst.commits[env.From] = env
	e.recordCommitVote(inst, env, &c)
	return e.maybeCommitted(now, c.Seq, nil)
}

// recordCommitVote turns a stored commit into a certificate vote: the
// vote is the envelope's seal, which admitVote verified before the commit
// was stored (this replica's own is valid as sealed), so nothing is
// checked again. The vote is only noted in the vote cache, where
// Certificate.Verify finds it when the block is added to the chain.
// Votes are recorded once the instance's digest is known and matches, so
// the vote set always certifies the accepted value.
func (e *Engine) recordCommitVote(inst *instance, env *consensus.Envelope, c *Commit) {
	if inst.prePrepare == nil || c.Digest != inst.digest || inst.certSeen[env.From] {
		return
	}
	types.NoteVote(env.From, types.CommitVoteBytes(env.From, c.Era, c.View, c.Seq, c.Digest), env.Signature)
	inst.certSeen[env.From] = true
	inst.certVotes = append(inst.certVotes, types.Vote{Endorser: env.From, Signature: env.Signature})
}

// maybeCommitted fires when 2f+1 distinct verified commits (including
// our own) match the accepted digest; execution is strictly in sequence
// order. Every counted commit's seal is a certificate vote, so the
// assembled certificate always verifies at quorum strength.
func (e *Engine) maybeCommitted(now consensus.Time, seq uint64, acts []consensus.Action) []consensus.Action {
	inst := e.insts[seq]
	if inst == nil || inst.committed || !inst.prepared || inst.block == nil {
		return acts
	}
	if len(inst.certVotes) < e.com.Quorum() {
		return acts
	}
	inst.committed = true
	return e.executeReady(now, acts)
}

// executeReady executes committed instances in order from execNext.
func (e *Engine) executeReady(now consensus.Time, acts []consensus.Action) []consensus.Action {
	for {
		inst := e.insts[e.execNext]
		if inst == nil || !inst.committed || inst.executed {
			break
		}
		inst.executed = true
		if inst.proposed {
			e.lastRound = now - inst.proposedAt
		}
		seq := e.execNext
		e.execNext++
		e.executedBlocks++
		block := inst.block
		// Attach the commit certificate: the seals of the counted commits.
		votes := inst.certVotes
		if len(votes) > e.com.Quorum() {
			votes = votes[:e.com.Quorum()]
		}
		block.Cert = &types.Certificate{
			BlockHash: inst.digest,
			Era:       e.cfg.Era,
			View:      inst.view,
			Votes:     append([]types.Vote(nil), votes...),
		}
		e.ownDigests[seq] = inst.digest
		acts = append(acts, consensus.CommitBlock{Block: block})

		// This slot made it: retire its deadline. Only its own execution
		// does so — other slots' progress never touches it, which is what
		// keeps a stalled later slot detectable.
		acts = e.stopSlotTimer(seq, acts)
		// The pool-level grace period saw progress too.
		acts = e.resetProgressTimer(acts)

		if seq%e.cfg.CheckpointInterval == 0 {
			ck := &Checkpoint{consensus.SlotHeader{Era: e.cfg.Era, Seq: seq, Digest: inst.digest}}
			ckEnv := consensus.Seal(e.cfg.Key, ck)
			acts = append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: ckEnv})
			e.noteCheckpoint(seq, e.self, inst.digest)
		}
	}
	// An executed parent may release a child's deferred commit, and the
	// advanced window may make buffered messages deliverable.
	acts = e.maybeSendCommit(now, e.execNext, acts)
	acts = e.maybePropose(now, acts)
	acts = e.drainBuffered(now, acts)
	acts = e.ensureProgressTimer(acts)
	return acts
}

// --- checkpoints ---

func (e *Engine) onCheckpoint(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	// Same order as admitVote: everything that rules the checkpoint out
	// without its seal first, the seal check only when it will be stored.
	var ck Checkpoint
	if err := consensus.OpenUnverified(env, consensus.KindCheckpoint, &ck); err != nil {
		return nil
	}
	if ck.Era != e.cfg.Era || !e.com.IsMember(env.From) {
		return nil
	}
	if ck.Seq <= e.lowWater {
		e.counts.VotesSurplus++
		return nil // already stable: the quorum formed without this one
	}
	if d, dup := e.checkpoints[ck.Seq][env.From]; dup && d == ck.Digest {
		return nil
	}
	if env.Verify() != nil {
		return nil
	}
	e.counts.VotesVerified++
	e.noteCheckpoint(ck.Seq, env.From, ck.Digest)
	// A stabilized checkpoint lifts the watermarks: buffered messages
	// just above the old window may be deliverable now.
	return e.drainBuffered(now, nil)
}

func (e *Engine) noteCheckpoint(seq uint64, from gcrypto.Address, digest gcrypto.Hash) {
	m := e.checkpoints[seq]
	if m == nil {
		m = make(map[gcrypto.Address]gcrypto.Hash)
		e.checkpoints[seq] = m
	}
	m[from] = digest
	// Count signatures matching our own executed digest (if known);
	// otherwise the majority digest.
	own, haveOwn := e.ownDigests[seq]
	counts := make(map[gcrypto.Hash]int)
	for _, d := range m {
		counts[d]++
	}
	for d, c := range counts {
		if c >= e.com.Quorum() && (!haveOwn || d == own) {
			e.stabilizeCheckpoint(seq)
			return
		}
	}
}

// stabilizeCheckpoint garbage-collects the log below seq.
func (e *Engine) stabilizeCheckpoint(seq uint64) {
	if seq <= e.lowWater {
		return
	}
	e.lowWater = seq
	for s := range e.insts {
		if s <= seq {
			delete(e.insts, s)
		}
	}
	for s := range e.checkpoints {
		if s <= seq {
			delete(e.checkpoints, s)
		}
	}
	for s := range e.ownDigests {
		if s < seq {
			delete(e.ownDigests, s)
		}
	}
	e.pruneSentVotes(seq)
	e.pruneSeenVotes(seq)
	// A stable checkpoint also makes the durable log below it dead
	// weight; compacting here (rather than on a timer) keeps disk usage
	// a pure function of protocol progress.
	if c, ok := e.wal.(WALCompacter); ok && e.wal != nil {
		c.CompactBelow(e.cfg.Era, seq)
	}
}

// --- progress timer ---

func (e *Engine) hasOutstandingWork() bool {
	if e.cfg.App.PendingTxs() > 0 {
		return true
	}
	for s, inst := range e.insts {
		if s >= e.execNext && inst.prePrepare != nil && !inst.executed {
			return true
		}
	}
	return false
}

// ensureProgressTimer arms the progress timer if there is outstanding
// work and none is armed.
func (e *Engine) ensureProgressTimer(acts []consensus.Action) []consensus.Action {
	if e.inViewChange || e.progressTID != 0 || !e.hasOutstandingWork() {
		return acts
	}
	id := e.cfg.Timers.Next()
	e.progressTID = id
	e.timers[id] = timerProgress
	return append(acts, consensus.StartTimer{ID: id, Delay: e.cfg.ViewChangeTimeout})
}

// resetProgressTimer stops any armed progress timer and re-arms if
// needed.
func (e *Engine) resetProgressTimer(acts []consensus.Action) []consensus.Action {
	if e.progressTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.progressTID})
		delete(e.timers, e.progressTID)
		e.progressTID = 0
	}
	return e.ensureProgressTimer(acts)
}

// --- per-slot timers ---

// armSlotTimer gives an accepted proposal its own progress deadline.
// The delay grows with the slot's distance from the execution cursor so
// deadlines tend to fire oldest-first: the oldest unexecuted slot
// drives the view change, never a later one racing ahead of it.
func (e *Engine) armSlotTimer(seq uint64, acts []consensus.Action) []consensus.Action {
	if e.inViewChange {
		return acts
	}
	if _, armed := e.slotTimers[seq]; armed {
		return acts
	}
	id := e.cfg.Timers.Next()
	e.slotTimers[seq] = id
	e.timerSlots[id] = seq
	e.timers[id] = timerSlot
	depth := uint64(1)
	if seq > e.execNext {
		depth += seq - e.execNext
	}
	return append(acts, consensus.StartTimer{ID: id, Delay: time.Duration(depth) * e.cfg.ViewChangeTimeout})
}

// stopSlotTimer cancels one slot's deadline (it executed, was synced
// past, or a view change supersedes it).
func (e *Engine) stopSlotTimer(seq uint64, acts []consensus.Action) []consensus.Action {
	id, ok := e.slotTimers[seq]
	if !ok {
		return acts
	}
	delete(e.slotTimers, seq)
	delete(e.timerSlots, id)
	delete(e.timers, id)
	return append(acts, consensus.StopTimer{ID: id})
}

// stopAllSlotTimers cancels every slot deadline (view-change entry).
func (e *Engine) stopAllSlotTimers(acts []consensus.Action) []consensus.Action {
	for seq := range e.slotTimers {
		acts = e.stopSlotTimer(seq, acts)
	}
	return acts
}

// --- hold-back buffer ---

// bufferVote holds a message addressed just above the acceptance window
// so it can be replayed deterministically once the window advances.
// Messages more than one checkpoint interval past the high watermark
// are dropped outright — a correct peer can never be that far ahead,
// and the bound keeps the buffer finite under a flooding adversary.
func (e *Engine) bufferVote(seq uint64, env *consensus.Envelope) []consensus.Action {
	if seq > e.highWater()+e.cfg.CheckpointInterval {
		return nil
	}
	if len(e.pendingMsgs[seq]) >= 3*e.com.Size() {
		return nil
	}
	e.pendingMsgs[seq] = append(e.pendingMsgs[seq], env)
	return nil
}

// bufferedDeliverable reports whether a held-back message has entered
// the window it was waiting for.
func (e *Engine) bufferedDeliverable(env *consensus.Envelope, seq uint64) bool {
	switch env.MsgKind {
	case consensus.KindPrePrepare:
		if e.inViewChange || seq < e.execNext || seq >= e.execNext+uint64(e.maxInFlight) || seq > e.highWater() {
			return false // between views a proposal can only bounce back
		}
		// Redelivering a proposal whose parent is still missing would
		// only bounce it back into the buffer.
		return seq == e.execNext || e.parentBlock(seq) != nil
	default:
		return seq > e.lowWater && seq <= e.highWater()
	}
}

// drainBuffered replays held-back messages that have entered the
// acceptance window, ordered by sequence number so the outcome is
// independent of original arrival order. Redelivery goes through the
// normal handlers (and may legitimately re-buffer); passes are bounded
// by the window span, and re-entry from a handler is a no-op.
func (e *Engine) drainBuffered(now consensus.Time, acts []consensus.Action) []consensus.Action {
	if e.draining || len(e.pendingMsgs) == 0 {
		return acts
	}
	e.draining = true
	defer func() { e.draining = false }()
	maxPasses := int(2*e.cfg.CheckpointInterval) + 2
	for pass := 0; pass < maxPasses; pass++ {
		seqs := make([]uint64, 0, len(e.pendingMsgs))
		for s := range e.pendingMsgs {
			if s < e.execNext {
				delete(e.pendingMsgs, s) // decided without us; stale
				continue
			}
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		progressed := false
		for _, s := range seqs {
			envs := e.pendingMsgs[s]
			var keep, fire []*consensus.Envelope
			for _, env := range envs {
				if e.bufferedDeliverable(env, s) {
					fire = append(fire, env)
				} else {
					keep = append(keep, env)
				}
			}
			if len(keep) == 0 {
				delete(e.pendingMsgs, s)
			} else {
				e.pendingMsgs[s] = keep
			}
			for _, env := range fire {
				progressed = true
				switch env.MsgKind {
				case consensus.KindPrePrepare:
					acts = append(acts, e.onPrePrepare(now, env)...)
				case consensus.KindPrepare:
					acts = append(acts, e.onPrepare(now, env)...)
				case consensus.KindCommit:
					acts = append(acts, e.onCommit(now, env)...)
				}
			}
		}
		if !progressed {
			break
		}
	}
	return acts
}
