package pbft

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// Defaults for engine tuning knobs.
const (
	// DefaultCheckpointInterval is K: the stable point advances at every
	// K-th executed block; the high watermark is lowWater + 2K.
	DefaultCheckpointInterval = 16
	// DefaultMaxInFlight is the pipelining depth: how many sequence
	// numbers may run their three phases concurrently. 1 is the serial
	// ablation (one full round trip per block, the pre-pipelining
	// behaviour).
	DefaultMaxInFlight = 8
)

// Application is the runtime surface the engine drives blocks through:
// building and validating the block of a slot on the parent the engine
// names for it, and the mempool behind them. Implementations live in
// the node runtime.
type Application interface {
	// BuildBlockOn assembles the block at seq on top of parent,
	// skipping transactions whose ID is in exclude (they are packed into
	// retained ancestors, but still sit in the pool until those are
	// applied). On the applied head the block is eager; on any other
	// parent it is full or nil (MinSpeculativeBatch). Nil means nothing
	// to propose.
	BuildBlockOn(now consensus.Time, era, view, seq uint64, parent *types.Block, exclude map[gcrypto.Hash]bool) *types.Block
	// ValidateBlockOn checks b, a proposal received in a pre-prepare, as
	// the immediate child of parent.
	ValidateBlockOn(b, parent *types.Block) error
	// MinSpeculativeBatch is the fewest transactions BuildBlockOn packs
	// off the applied head — a full block: with fewer pooled transactions
	// outside exclude it returns nil. The engine uses it to tell, from
	// counts alone, when assembling the exclusion set cannot lead to a
	// block.
	MinSpeculativeBatch() int
	// BaseBatch is the application's configured block size, at or below
	// MinSpeculativeBatch. It bounds the proposal hold's threshold.
	BaseBatch() int
	// SubmitTx adds a transaction to the pending pool; duplicates are
	// ignored. It returns an error only for invalid transactions.
	SubmitTx(tx *types.Transaction) error
	// PendingTxs reports how many transactions await inclusion.
	PendingTxs() int
	// PendingList returns up to max pending transactions (FIFO order);
	// the era layer hands them to the endorsers an era switch adds, and
	// the primary looks through a small backlog for control transactions.
	PendingList(max int) []types.Transaction
	// PooledTx returns the pending transaction with the given ID, or nil:
	// a backup assembles a proposal's block from the pool.
	PooledTx(id gcrypto.Hash) *types.Transaction
	// Head returns the newest block applied to the chain, with its
	// commit certificate: what a replica restored from its chain offers
	// as its stable point, how far executed blocks are applied, and the
	// parent of a slot no retained block precedes.
	Head() *types.Block
}

// Config configures one PBFT engine instance (one era in G-PBFT).
type Config struct {
	Era       uint64
	Committee *consensus.Committee
	Key       *gcrypto.KeyPair
	App       Application
	// StartHeight is the first block height this instance decides
	// (current chain height + 1).
	StartHeight uint64
	// CheckpointInterval is K, the interval of the stable point: the
	// watermark window and WAL compaction advance at every K-th executed
	// block. Zero selects the default.
	CheckpointInterval uint64
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
	// Node is what outlives the instance (the era layer owns it): the
	// held list, the failure detector and the counters. Nil gives the
	// instance a node of its own, with its own timer IDs and the timeout
	// taken from the rounds it times.
	Node *NodeState
}

// NodeState is what a node keeps across its era instances: its held
// list, its failure detector, and its counters, which each instance adds
// to as it counts, so no count is lost or reset when an era ends. The
// counters are read from any goroutine.
//
// The vote fast path: VotesVerified counts seal checks on prepares and
// commits (each vote once, when it first entered engine state),
// VotesSurplus the votes dropped unverified because their phase already
// held its quorum or their slot was already stable. The proposal policy:
// ProposalsHeld counts the under-full head blocks the primary held back
// (see maybePropose), ProposalsHeldFired those whose hold ran its full
// time instead of ending early on a fuller pool. Block assembly:
// ProposalsParked counts pre-prepares this replica could not assemble
// from its pool, FetchesSent and FetchesAnswered the fetch requests it
// sent and answered.
type NodeState struct {
	Held Held
	fd   *Detector

	VotesVerified, VotesSurplus       atomic.Uint64
	ProposalsHeld, ProposalsHeldFired atomic.Uint64
	ProposalsParked                   atomic.Uint64
	FetchesSent, FetchesAnswered      atomic.Uint64
}

// NewNodeState returns a node whose detector takes its timer IDs from
// timers. A non-zero fixed is the timeout; zero takes it from the rounds
// timed.
func NewNodeState(timers *consensus.TimerAllocator, fixed time.Duration) *NodeState {
	return &NodeState{fd: NewDetector(timers, fixed)}
}

func (c *Config) fill() {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = DefaultCheckpointInterval
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	if c.Node == nil {
		c.Node = NewNodeState(consensus.NewTimerAllocator(), 0)
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
	// acceptedAt is when this replica accepted the slot's proposal in
	// inst.view, or made it as that view's primary (proposed); timed says
	// this incarnation did so, and then the slot's execution ends a round
	// (a prepared slot restored from the WAL began in an earlier one).
	proposed   bool
	timed      bool
	acceptedAt consensus.Time
}

// newInstance opens a slot's vote tables, sized for the whole committee
// so that they never grow.
func (e *Engine) newInstance(view uint64) *instance {
	n := e.com.Size()
	return &instance{
		view:      view,
		prepares:  make(map[gcrypto.Address]*consensus.Envelope, n),
		commits:   make(map[gcrypto.Address]*consensus.Envelope, n),
		certSeen:  make(map[gcrypto.Address]bool, n),
		certVotes: make([]types.Vote, 0, n),
	}
}

// Engine is one replica's PBFT state machine. It is not safe for
// concurrent use; the runner serializes events.
type Engine struct {
	cfg   Config
	self  gcrypto.Address
	index uint64 // self's committee position, which names it on the wire
	com   *consensus.Committee

	view     uint64
	execNext uint64 // next seq to execute
	insts    map[uint64]*instance
	// The stable point (DESIGN.md 5t) and its proof (nil: unproven); the
	// highest seq whose instance may be dropped, and the WAL's compaction.
	lowWater     uint64
	stableCert   *types.Certificate
	floor        uint64
	compacted    uint64
	viewChanges  map[uint64]map[gcrypto.Address]*vcRecord
	inViewChange bool
	vcTarget     uint64 // view we are trying to reach while inViewChange
	halted       bool

	// newViewEnv is the NewView certificate that established the
	// current view (nil while still in view 0 or after WAL recovery).
	// It is retransmitted to replicas petitioning for stale views so a
	// restarted node can verify the jump to the committee's view.
	newViewEnv *consensus.Envelope

	// fd holds every deadline this instance arms (failure.go).
	fd *Detector

	// Pipelining: the in-flight depth negotiated from Config, and the
	// deterministic hold-back buffer for messages just above the
	// acceptance window (votes ahead of the watermarks, pre-prepares whose
	// parent or whose transactions have not arrived yet). draining guards
	// re-entrant drains.
	maxInFlight int
	pendingMsgs map[uint64][]*consensus.Envelope
	draining    bool

	// Block assembly (fetch.go): parked tracks, by seq, the buffered
	// pre-prepares whose blocks this replica could not assemble yet; the
	// NewView that set the current view leaves the blocks of the
	// instances it dropped (carried) and who prepared them (provers).
	parked  map[uint64]*parkedProposal
	carried map[gcrypto.Hash]*types.Block
	provers map[gcrypto.Hash][]gcrypto.Address

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

	node *NodeState

	// Proposal policy (see holdHead): lastRound is the propose-to-execute
	// time of the own slot that has just executed, until the
	// OnCommitApplied that follows consumes it.
	lastRound time.Duration

	viewChangesFin uint64
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
		index:           uint64(cfg.Committee.IndexOf(cfg.Key.Address())),
		com:             cfg.Committee,
		lowWater:        cfg.StartHeight - 1,
		floor:           cfg.StartHeight - 1,
		compacted:       cfg.StartHeight - 1,
		execNext:        cfg.StartHeight,
		insts:           make(map[uint64]*instance),
		viewChanges:     make(map[uint64]map[gcrypto.Address]*vcRecord),
		fd:              cfg.Node.fd,
		node:            cfg.Node,
		maxInFlight:     cfg.MaxInFlight,
		pendingMsgs:     make(map[uint64][]*consensus.Envelope),
		parked:          make(map[uint64]*parkedProposal),
		wal:             cfg.WAL,
		sentPrePrepares: make(map[voteKey]gcrypto.Hash),
		sentPrepares:    make(map[voteKey]gcrypto.Hash),
		sentCommits:     make(map[voteKey]gcrypto.Hash),
	}
	e.stableCert = e.headProof(e.lowWater) // a restored replica's stable point
	if cfg.EvidenceSink != nil {
		e.seenVotes = make(map[seenSlot]seenVote)
		e.accused = make(map[gcrypto.Address]bool)
	}
	e.fd.enterEra()
	e.restoreDurable(cfg.Durable)
	return e, nil
}

// --- accessors ---

// View returns the current view number.
func (e *Engine) View() uint64 { return e.view }

// Timeout is the base of every liveness timer, as the failure detector
// has it now (failure.go).
func (e *Engine) Timeout() time.Duration { return e.fd.timeout() }

// Era returns the configured era.
func (e *Engine) Era() uint64 { return e.cfg.Era }

// Primary returns the current primary's address.
func (e *Engine) Primary() gcrypto.Address { return e.com.Primary(e.view) }

// IsPrimary reports whether this replica leads the current view.
func (e *Engine) IsPrimary() bool { return e.Primary() == e.self }

// InViewChange reports whether a view change is in progress.
func (e *Engine) InViewChange() bool { return e.inViewChange }

// NextSeq returns the next sequence number awaiting execution.
func (e *Engine) NextSeq() uint64 { return e.execNext }

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

// Certified reports whether this replica holds a commit certificate for
// seq: 2f+1 commits matching the proposal it accepted there.
func (e *Engine) Certified(seq uint64) bool {
	inst := e.insts[seq]
	return inst != nil && len(inst.certVotes) >= e.com.Quorum()
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
	acts = e.relayHeld(acts)
	acts = e.maybePropose(now, acts)
	acts = e.fd.settle(e.busy(), acts)
	return acts
}

// AdvanceTo informs the engine that the runtime applied synced blocks
// up to and including height seq; local instances at or below it are
// dropped, and the synced head, whose certificate the sync path checked,
// becomes the stable point.
func (e *Engine) AdvanceTo(now consensus.Time, seq uint64) []consensus.Action {
	if e.halted || seq < e.execNext {
		return nil
	}
	var acts []consensus.Action
	for s := e.execNext; s <= seq; s++ {
		acts = e.fd.stop(slotWait(s), acts)
		delete(e.insts, s)
	}
	e.execNext = seq + 1
	e.stabilize(seq, e.headProof(seq))
	// Synced-past slots count as executed parents: a child slot whose
	// commit was held back waiting for them can release it now.
	acts = e.maybeSendCommit(now, e.execNext, acts)
	acts = e.maybePropose(now, acts)
	acts = e.drainBuffered(now, acts)
	acts = e.fd.settle(e.busy(), acts)
	return acts
}

// OnCommitApplied implements consensus.CommitNotifiable: once the
// runtime has applied committed blocks to the chain, the primary can
// propose on top of the new head (a block is eager only on the applied
// head; on an executed parent not yet applied it is full or nothing).
func (e *Engine) OnCommitApplied(now consensus.Time) []consensus.Action {
	if e.halted {
		return nil
	}
	e.compactWAL()
	var acts []consensus.Action
	acts = e.holdHead(acts)
	acts = e.maybePropose(now, acts)
	acts = e.fd.settle(e.busy(), acts)
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
	return e.onPooled(now, tx, true)
}

// onPooled moves the engine on after tx entered the pool: relayed (or
// held) when this replica may be its only holder, completing a parked
// proposal, or proposed.
func (e *Engine) onPooled(now consensus.Time, tx *types.Transaction, relay bool) []consensus.Action {
	var acts []consensus.Action
	if relay {
		acts = e.relayOrHold(tx, acts)
	}
	if len(e.parked) > 0 { // a parked proposal may now be whole
		acts = e.drainBuffered(now, acts)
	}
	if e.IsPrimary() {
		acts = e.maybePropose(now, acts)
	}
	return e.fd.settle(e.busy(), acts)
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
		e.node.Held.Add(tx)
		return acts
	}
	env := NewRequest(e.cfg.Key, tx)
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

// relayHeld announces the held list once each: at Init, before the
// first proposal can name an entry (backups assemble proposals from
// their pools), and on entering a new view.
func (e *Engine) relayHeld(acts []consensus.Action) []consensus.Action {
	held := e.node.Held.Take()
	for i := range held {
		acts = e.relayOrHold(&held[i], acts)
	}
	return acts
}

// OnTimer dispatches a timer firing.
func (e *Engine) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	if e.halted {
		return nil
	}
	w, ok := e.fd.fired(id)
	if !ok {
		return nil // stale timer
	}
	switch w.kind {
	case waitProgress:
		// No progress on outstanding work: suspect the primary.
		if e.busy() {
			e.fd.suspect()
			return e.startViewChange(now, e.view+1)
		}
	case waitSlot:
		// One accepted slot ran out of patience: depose the primary.
		if inst := e.insts[w.seq]; !e.inViewChange && w.seq >= e.execNext && inst != nil && inst.prePrepare != nil && !inst.executed {
			e.fd.suspect()
			return e.startViewChange(now, e.view+1)
		}
	case waitViewChange:
		// The view change itself stalled; escalate to the next view with
		// doubled patience (exponential backoff, as in PBFT).
		e.fd.backoff++
		return e.startViewChange(now, e.vcTarget+1)
	case waitHold:
		// The held head block waited its round: propose what there is.
		e.node.ProposalsHeldFired.Add(1)
		return e.fd.settle(e.busy(), e.maybePropose(now, nil))
	}
	return nil
}

// OnEnvelope names a received protocol message's sender and dispatches it.
func (e *Engine) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	if e.halted || !env.Resolve(e.com) {
		return nil
	}
	switch env.MsgKind {
	case consensus.KindRequest:
		if tx, only := PoolRequest(e.cfg.App, e.com, env); tx != nil {
			return e.onPooled(now, tx, only)
		}
		return nil
	case consensus.KindPrePrepare:
		return e.onPrePrepare(now, env)
	case consensus.KindPrepare:
		return e.onPrepare(now, env)
	case consensus.KindCommit:
		return e.onCommit(now, env)
	case consensus.KindViewChange:
		return e.onViewChange(now, env)
	case consensus.KindNewView:
		return e.onNewView(now, env)
	case consensus.KindFetch:
		return e.onFetch(now, env)
	default:
		return nil
	}
}

// seal signs p as this replica, named on the wire by its committee
// position.
func (e *Engine) seal(p consensus.Payload) *consensus.Envelope {
	env := consensus.Seal(e.cfg.Key, p)
	env.Sender = e.index
	return env
}

// decode reads an envelope nested in a NewView, a prepared proof or a
// WAL record, its sender named from this era's committee.
func (e *Engine) decode(raw []byte) (*consensus.Envelope, error) {
	env, err := consensus.DecodeEnvelope(raw)
	if err != nil {
		return nil, err
	}
	if !env.Resolve(e.com) {
		return nil, ErrNotMember
	}
	return env, nil
}

// --- normal case ---

// maybePropose issues pre-prepares when this replica is the primary:
// one for every unproposed slot from execNext up to the pipelining
// depth (bounded by the high watermark). Each slot is built on the
// parent parentBlock names — the applied chain head, or the in-flight
// predecessor — so the window always forms a hash chain.
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
	// A NewView can prove a stable point above this replica's execution
	// (DESIGN.md 5t): those slots are decided, their instances and
	// sent-vote guards are pruned, and re-proposing one would rebuild a
	// different block from today's pool and equivocate against our own
	// earlier pre-prepare. Stay silent at or below the stable point; sync
	// moves execNext past it.
	seqStart := e.execNext
	if seqStart <= e.lowWater {
		seqStart = e.lowWater + 1
	}
	for seq := seqStart; seq <= maxSeq; seq++ {
		if inst := e.insts[seq]; inst != nil && inst.view == e.view && inst.prePrepare != nil {
			continue // already proposed in this view
		}
		if _, held := e.fd.find(holdWait); held {
			if e.underfull() {
				break
			}
			e.lastRound = 0
			acts = e.fd.stop(holdWait, acts)
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
		pp := NewPrePrepare(e.cfg.Era, e.view, seq, block)
		env := e.seal(pp)
		acts = append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: env})
		acts = e.acceptPrePrepare(now, pp, block, env, acts)
		if inst := e.insts[seq]; inst != nil {
			inst.proposed = true
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
	if max := e.Timeout() / 4; hold > max {
		hold = max
	}
	e.node.ProposalsHeld.Add(1)
	return e.fd.arm(holdWait, hold, acts)
}

// underfull reports whether the pool holds a backlog too small to pay
// for a round: some transactions, fewer than min(f, base batch), and
// none of them control-lane (an era switch, evidence or a region
// checkpoint never waits for company). At n = 4, f = 1 and no backlog
// is under-full.
func (e *Engine) underfull() bool {
	limit := min(e.com.F(), e.cfg.App.BaseBatch())
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

// buildAt assembles the block for one slot on the parent parentBlock
// names for it.
func (e *Engine) buildAt(now consensus.Time, seq uint64) *types.Block {
	parent := e.parentBlock(seq)
	if parent == nil {
		return nil
	}
	var exclude map[gcrypto.Hash]bool
	if !types.SameBlock(parent, e.cfg.App.Head()) {
		// Count before hashing. This replica's own unexecuted proposals
		// were packed from its pool and stay there until they commit, so
		// the pool holds at most PendingTxs minus their transactions for a
		// new block; below a full block the application would decline, and
		// the exclusion set (a map entry per retained transaction) need not
		// be built to hear it say so. A primary runs this on every relayed
		// request.
		packed := 0
		for s := e.execNext; s < seq; s++ {
			if inst := e.insts[s]; inst != nil && inst.block != nil && !inst.executed && inst.block.Header.Proposer == e.self {
				packed += len(inst.block.Txs)
			}
		}
		if e.cfg.App.PendingTxs()-packed < e.cfg.App.MinSpeculativeBatch() {
			return nil
		}
		// Exclude everything packed below seq — including executed blocks
		// whose CommitBlock action has not been applied yet — because those
		// transactions still sit in the pool.
		exclude = e.exclusionRange(e.floor+1, seq)
	}
	return e.cfg.App.BuildBlockOn(now, e.cfg.Era, e.view, seq, parent, exclude)
}

// parentBlock names the block slot seq extends: the block occupying slot
// seq-1 if this replica holds it (in flight, or executed and not yet
// pruned by stabilize), otherwise the applied chain head if it is at
// seq-1; nil while this replica holds neither.
func (e *Engine) parentBlock(seq uint64) *types.Block {
	if seq == 0 {
		return nil
	}
	if inst := e.insts[seq-1]; inst != nil && inst.block != nil && inst.block.Header.Seq == seq-1 {
		return inst.block
	}
	if head := e.cfg.App.Head(); head.Header.Height == seq-1 {
		return head
	}
	return nil
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
	if pp.Seq < e.execNext || pp.Seq <= e.lowWater {
		// Already executed locally, or decided without us.
		return e.confirmExecuted(&pp, env)
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
	if pp.Digest != pp.Header.Hash() {
		return nil
	}
	// The block header records the view it was ORIGINALLY proposed in:
	// a pre-prepare re-issued after a view change keeps the old header
	// (the prepared value must not change), so require header.View <=
	// message view and that the header's proposer was that view's
	// primary.
	hdr := &pp.Header
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
	block, missing := e.assemble(&pp)
	if block == nil {
		return e.fd.settle(e.busy(), e.park(&pp, env, missing))
	}
	if env.From == e.self {
		// This replica's own re-issue from its NewView: the primary's
		// vote is the pre-prepare, so install it and wait for prepares.
		acts := e.acceptPrePrepare(now, &pp, block, env, nil)
		acts = e.drainBuffered(now, acts)
		return e.fd.settle(e.busy(), acts)
	}
	parent := e.parentBlock(pp.Seq)
	if parent == nil {
		// The parent slot's block has not arrived: hold the proposal for
		// it, unless the slot is the next to execute and so has none to
		// wait for.
		if pp.Seq == e.execNext {
			return nil
		}
		return e.bufferVote(pp.Seq, env)
	}
	if e.cfg.App.ValidateBlockOn(block, parent) != nil {
		return nil
	}
	// Exactly-once across the window: refuse a proposal re-packing a
	// transaction an in-flight ancestor already carries.
	if pp.Seq > e.execNext {
		excl := e.exclusionRange(e.execNext, pp.Seq)
		for _, id := range pp.TxIDs {
			if excl[id] {
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
	acts = e.acceptPrePrepare(now, &pp, block, env, acts)
	// Accepting can complete the slot on the spot: recovered prepares
	// and raced-ahead commits may already form certificates.
	if inst := e.insts[pp.Seq]; inst != nil {
		// A backup that accepts multicasts prepare to all others.
		prep := &Prepare{pp.SlotHeader}
		prepEnv := e.seal(prep)
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
	acts = e.fd.settle(e.busy(), acts)
	return acts
}

// confirmExecuted votes for a new view's re-issue of a slot this replica
// has executed, when it names the executed block: that block is decided,
// and the replicas that have not executed it need the votes of those that
// have — at n = 4, two executors that stayed silent would leave the new
// view one vote short for good (DESIGN.md 5t). A backup sends its
// prepare and its commit, the primary its commit, once. Each is recorded
// before it is sent, like every vote; the commit's prepared record
// carries no proof, since the chain holds the block.
func (e *Engine) confirmExecuted(pp *PrePrepare, env *consensus.Envelope) []consensus.Action {
	inst := e.insts[pp.Seq]
	if _, sent := e.sentCommits[voteKey{View: pp.View, Seq: pp.Seq}]; sent || inst == nil || !inst.executed ||
		inst.digest != pp.Digest || inst.view >= pp.View || pp.View != e.view || e.inViewChange {
		return nil
	}
	var acts []consensus.Action
	if env.From != e.self {
		if !e.recordVote(store.WALPrepare, e.sentPrepares, pp.View, pp.Seq, pp.Digest, nil) {
			return nil
		}
		acts = append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: e.seal(&Prepare{pp.SlotHeader})})
	}
	if !e.recordVote(store.WALPrepared, e.sentCommits, pp.View, pp.Seq, pp.Digest, nil) {
		return acts
	}
	return append(acts, consensus.Broadcast{To: e.com.Others(e.self), Env: e.seal(&Commit{pp.SlotHeader})})
}

// acceptPrePrepare installs the proposal and its block into the
// instance log.
func (e *Engine) acceptPrePrepare(now consensus.Time, pp *PrePrepare, block *types.Block, env *consensus.Envelope, acts []consensus.Action) []consensus.Action {
	inst := e.insts[pp.Seq]
	if inst == nil || inst.view != pp.View {
		inst = e.newInstance(pp.View)
		e.insts[pp.Seq] = inst
	}
	if inst.prePrepare == nil {
		inst.timed, inst.acceptedAt = true, now
	}
	inst.digest = pp.Digest
	inst.block = block
	inst.prePrepare = env
	delete(e.parked, pp.Seq)
	// Every accepted proposal gets its own deadline so an earlier slot's
	// progress can never mask a primary stalling a later one. Its delay
	// grows with the slot's distance from the execution cursor so that
	// deadlines tend to fire oldest-first: the oldest unexecuted slot
	// drives the view change, never a later one racing ahead of it.
	if !e.inViewChange {
		depth := 1 + max(pp.Seq, e.execNext) - e.execNext
		acts = e.fd.arm(slotWait(pp.Seq), time.Duration(depth)*e.fd.patience(), acts)
	}
	// Votes that raced ahead of the pre-prepare can now be judged against
	// the accepted digest: prepares join the matching count, commits
	// become certificate votes, in committee order — the certificate's
	// bytes must not depend on a map's order. Stored envelopes were
	// verified before they were stored, so decoding is all that is left.
	inst.matching = 0
	for _, penv := range inst.prepares {
		var p Prepare
		if consensus.OpenUnverified(penv, consensus.KindPrepare, &p) == nil && p.Digest == inst.digest {
			inst.matching++
		}
	}
	for i := 0; i < e.com.Size() && len(inst.commits) > 0; i++ {
		var c Commit
		if cenv := inst.commits[e.com.Member(i).Address]; cenv != nil && consensus.OpenUnverified(cenv, consensus.KindCommit, &c) == nil {
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
// stable point): storing it could never change an outcome, so it
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
		e.countVote(&e.node.VotesSurplus)
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
			e.countVote(&e.node.VotesSurplus)
			return false
		}
	}
	if env.Verify() != nil {
		return false
	}
	e.countVote(&e.node.VotesVerified)
	return true
}

// countVote counts a vote's fate once: a vote redelivered from the
// hold-back buffer was verified, and counted, when it was buffered.
func (e *Engine) countVote(counter *atomic.Uint64) {
	if !e.draining {
		counter.Add(1)
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
	if p.Seq < e.execNext {
		// Executed here: no vote changes the slot, and one from a later
		// view must not replace the instance whose proof this replica's
		// view changes still carry.
		return nil
	}
	inst := e.insts[p.Seq]
	if inst == nil || inst.view != p.View {
		inst = e.newInstance(p.View)
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
	cenv := e.seal(c)
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
	if c.Seq < e.execNext {
		return nil // executed here, as for a prepare
	}
	inst := e.insts[c.Seq]
	if inst == nil || inst.view != c.View {
		inst = e.newInstance(c.View)
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
		e.fd.executed(now-inst.acceptedAt, inst.timed)
		if inst.timed && inst.proposed {
			e.lastRound = now - inst.acceptedAt
		}
		seq := e.execNext
		e.execNext++
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
		acts = append(acts, consensus.CommitBlock{Block: block})

		// This slot made it: retire its deadline. Only its own execution
		// does so — other slots' progress never touches it, which is what
		// keeps a stalled later slot detectable.
		acts = e.fd.stop(slotWait(seq), acts)
		// The pool-level grace period saw progress too.
		acts = e.fd.settle(e.busy(), e.fd.stop(progressWait, acts))

		// Every K-th block is a stable point, and the certificate just
		// attached is its proof: no message is exchanged for it.
		if seq%e.cfg.CheckpointInterval == 0 {
			e.stabilize(seq, block.Cert)
		}
	}
	// An executed parent may release a child's deferred commit, and the
	// advanced window may make buffered messages deliverable.
	acts = e.maybeSendCommit(now, e.execNext, acts)
	acts = e.maybePropose(now, acts)
	acts = e.drainBuffered(now, acts)
	acts = e.fd.settle(e.busy(), acts)
	return acts
}

// --- stable point ---

// headProof returns the certificate of the applied chain head if the
// head is at seq and was certified by this era's committee, else nil.
func (e *Engine) headProof(seq uint64) *types.Certificate {
	head := e.cfg.App.Head()
	if head.Header.Height != seq || head.Cert == nil || head.Cert.Era != e.cfg.Era {
		return nil
	}
	return head.Cert
}

// stabilize makes seq the stable point, proven by cert, and drops the
// instances and vote guards at or below it — except the instances of
// executed blocks the chain has not applied yet: their transactions are
// still pooled, and the next proposal builds on them.
func (e *Engine) stabilize(seq uint64, cert *types.Certificate) {
	if seq <= e.lowWater {
		return
	}
	e.lowWater, e.stableCert = seq, cert
	applied := e.cfg.App.Head().Header.Height
	for s, inst := range e.insts {
		if s <= seq && (s <= applied || !inst.executed) {
			delete(e.insts, s)
		}
	}
	e.floor = min(seq, applied)
	e.pruneSentVotes(seq)
	e.pruneSeenVotes(seq)
}

// compactWAL drops the WAL records at or below the stable point whose
// blocks the chain holds, once the runtime has applied a step's commits:
// a crash keeps the votes of any block not yet applied, and the fsyncs
// never delay a commit.
func (e *Engine) compactWAL() {
	to := min(e.lowWater, e.cfg.App.Head().Header.Height)
	if to <= e.compacted {
		return
	}
	e.compacted = to
	if c, ok := e.wal.(WALCompacter); ok && e.wal != nil {
		c.CompactBelow(e.cfg.Era, to)
	}
}

// --- progress ---

// busy reports whether there is outstanding work the current view's
// primary owes progress on; never between views.
func (e *Engine) busy() bool {
	if e.inViewChange {
		return false
	}
	if e.cfg.App.PendingTxs() > 0 || len(e.parked) > 0 {
		return true
	}
	for s, inst := range e.insts {
		if s >= e.execNext && inst.prePrepare != nil && !inst.executed {
			return true
		}
	}
	return false
}

// --- hold-back buffer ---

// bufferVote holds a message addressed just above the acceptance window
// so it can be replayed deterministically once the window advances.
// Messages more than one stable-point interval past the high watermark
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
		// Redelivering a proposal whose parent or whose transactions are
		// still missing would only bounce it back into the buffer.
		return (seq == e.execNext || e.parentBlock(seq) != nil) && e.assemblable(env)
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
	if e.draining {
		return acts
	}
	for s := range e.parked {
		if s < e.execNext {
			delete(e.parked, s) // decided without us
		}
	}
	if len(e.pendingMsgs) == 0 {
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
