// Package core implements the paper's primary contribution: the
// Geographic-PBFT era layer. It wraps a fresh PBFT instance per era
// ("G-PBFT can be regarded as a splice of multiple successive PBFT",
// Section III-B4) and adds:
//
//   - the era switch of Section III-E: the chain ends an era at its
//     boundary block, where it runs Algorithm 1 (ledger.RunElection),
//     and the layer halts the old instance for the switch period before
//     the new committee starts;
//   - the incentive mechanism's proposer bias (longer geographic timer
//     ⇒ earlier in the primary rotation), read from the rotation the
//     chain fixed when the era began;
//   - block and snapshot sync, era announcements to added endorsers, and
//     submission of misbehavior evidence.
package core

import (
	"errors"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// ProposerPolicy selects how the committee is ordered for primary
// rotation within an era.
type ProposerPolicy int

const (
	// ProposerGeoTimer follows the chain's rotation: descending
	// geographic timer as the boundary block that began the era left the
	// table — the paper's incentive bias ("A longer time in the
	// geographic timer will have a higher chance of generating a new
	// block"). The genesis era, and so a chain whose committee never
	// switches, rotates in address order.
	ProposerGeoTimer ProposerPolicy = iota
	// ProposerAddress is plain canonical rotation (the ablation
	// baseline).
	ProposerAddress
)

// Config configures one G-PBFT node engine.
type Config struct {
	Chain *ledger.Chain
	Key   *gcrypto.KeyPair
	App   *runtime.App
	// Timers is shared with the inner per-era PBFT engines.
	Timers *consensus.TimerAllocator
	// Epoch maps engine time to wall-clock timestamps.
	Epoch time.Time

	// Inner PBFT knobs (passed through).
	CheckpointInterval uint64
	ViewChangeTimeout  time.Duration
	// MaxInFlight bounds how many consensus slots the inner engines
	// pipeline concurrently (0 = pbft default; 1 = serial ablation).
	MaxInFlight int

	ProposerPolicy ProposerPolicy
	// WAL, when set, makes the inner consensus engines durable: every
	// vote is persisted before it is sent, and the log is rotated when
	// an era switch completes (finished eras can never conflict again).
	WAL ConsensusWAL
	// Recovered holds the records read back from the WAL at startup.
	// The engine folds the current era's records into its first inner
	// instance so a restarted endorser rejoins at the view it had
	// reached and never contradicts a vote it already sent.
	Recovered []store.WALRecord
	// DisableEraSwitch asserts that the chain's era rule is
	// ledger.ErasFrozen; New refuses the configuration otherwise. Whether
	// eras switch is the genesis policy's decision, not a node's.
	DisableEraSwitch bool
	// Snapshots, when set, enables snapshot-then-tail fast sync: this
	// node serves its retained snapshots to lagging peers and, when its
	// own lag exceeds FastSyncThreshold, installs a quorum-anchored
	// snapshot instead of replaying the gap block by block.
	Snapshots *store.SnapshotStore
	// FastSyncThreshold is the block gap at which snapshot sync is
	// preferred over tailing (0 = default 64).
	FastSyncThreshold uint64
}

// ConsensusWAL is the durable log the era layer threads into its inner
// PBFT instances: an append sink plus era rotation. *store.WAL
// satisfies it.
type ConsensusWAL interface {
	pbft.WAL
	Rotate(era uint64) error
}

// timer purposes of the era layer.
type tpurpose uint8

const (
	tResume tpurpose = iota + 1
	tSyncRetry
	tLagCheck
)

// maxBuffered bounds the next-era message buffer.
const maxBuffered = 4096

// maxBacklog bounds the pending pool the proposer of a boundary block
// hands to the endorsers the switch adds.
const maxBacklog = 128

// Engine is the G-PBFT era layer: a consensus.Engine that runs a fresh
// PBFT instance per era and orchestrates geographic authentication,
// era switches, block sync and announcements. Candidate nodes run the
// same engine in observer mode (no inner instance) until elected.
type Engine struct {
	cfg   Config
	self  gcrypto.Address
	chain *ledger.Chain

	era       uint64
	committee *consensus.Committee
	inner     *pbft.Engine // nil while not an endorser

	switching bool
	timers    map[consensus.TimerID]tpurpose

	buffered []*consensus.Envelope

	// node is what each era's instance shares: the one failure detector,
	// the counters, and the one held list, to which this layer adds what
	// arrives before Init or in the switch pause, each era's instance what
	// arrives during a view change.
	node *pbft.NodeState

	cu     catchUpState // sync.go
	sstats syncStats

	// view is the inner engine's view as filterInner last saw it.
	view uint64

	// pendingDurable is the recovered consensus state awaiting the
	// first startInstance; consumed exactly once (later instances start
	// fresh eras with no prior promises).
	pendingDurable *pbft.DurableState

	// Accountability: proofs handed over by the inner engine's
	// detector awaiting submission, the IDs this node has already
	// submitted, the chain-detected-evidence cursor, and the
	// re-entrancy guard for flushEvidence.
	evQueue     []*evidence.Record
	evSubmitted map[gcrypto.Hash]bool
	evCursor    int
	flushing    bool

	eraSwitches uint64
}

// New constructs a G-PBFT node engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Chain == nil || cfg.Key == nil || cfg.App == nil {
		return nil, errors.New("gpbft: config needs Chain, Key and App")
	}
	if cfg.DisableEraSwitch && cfg.Chain.Policy().Eras != ledger.ErasFrozen {
		return nil, errors.New("gpbft: DisableEraSwitch on a chain whose genesis switches eras")
	}
	if cfg.Timers == nil {
		cfg.Timers = consensus.NewTimerAllocator()
	}
	if cfg.FastSyncThreshold == 0 {
		cfg.FastSyncThreshold = 64
	}
	return &Engine{
		cfg:         cfg,
		self:        cfg.Key.Address(),
		chain:       cfg.Chain,
		timers:      make(map[consensus.TimerID]tpurpose),
		node:        pbft.NewNodeState(cfg.Timers, cfg.ViewChangeTimeout),
		evSubmitted: make(map[gcrypto.Hash]bool),
	}, nil
}

// --- accessors ---

// Era returns the engine's current era.
func (e *Engine) Era() uint64 { return e.era }

// IsEndorser reports whether this node participates in the current
// era's committee.
func (e *Engine) IsEndorser() bool { return e.inner != nil }

// Committee returns the current era's committee (nil for an observer
// that has never joined).
func (e *Engine) Committee() *consensus.Committee { return e.committee }

// Inner exposes the current PBFT instance (tests and metrics).
func (e *Engine) Inner() *pbft.Engine { return e.inner }

// Switching reports whether an era switch pause is in progress.
func (e *Engine) Switching() bool { return e.switching }

// EraSwitches returns how many era switches this node completed.
func (e *Engine) EraSwitches() uint64 { return e.eraSwitches }

// InFlight reports the inner engine's active-instance count and
// pipelining depth (0, 0 for an observer with no inner engine).
func (e *Engine) InFlight() (used, depth int) {
	if e.inner == nil {
		return 0, 0
	}
	return e.inner.InFlight()
}

// --- lifecycle ---

// Init implements consensus.Engine.
func (e *Engine) Init(now consensus.Time) []consensus.Action {
	e.era = e.chain.Era()
	restarted := e.chain.Height() > 0 || len(e.cfg.Recovered) > 0
	if len(e.cfg.Recovered) > 0 {
		e.pendingDurable = pbft.RecoverState(e.era, e.cfg.Recovered)
	}
	acts := e.enterEra(now, nil)
	if !restarted {
		return acts
	}
	// A restarted node may have missed commits (and even era switches)
	// while it was down: catch up before relying on timers to notice.
	return append(acts, e.catchUp(byRestart, e.chain.Height(), gcrypto.Address{})...)
}

// enterEra is the one way this node enters the chain's current era: at
// Init, when a switch pause ends, and when sync or a snapshot install
// carries it into a newer era. The committee is the chain's, in the
// rotation the ledger fixed when the era began, for an endorser and an
// observer alike; an endorser runs a fresh inner PBFT instance over it.
// Entering a newer era discards the consensus WAL of the one before and
// is reported as an era switch. Early traffic for the era and the
// transactions held while no request path ran are handed on.
func (e *Engine) enterEra(now consensus.Time, acts []consensus.Action) []consensus.Action {
	switched := false
	if era := e.chain.Era(); era != e.era {
		e.era, switched = era, true
		e.rotateWAL()
	}
	acts = e.startInstance(now, acts)
	if switched && e.committee != nil {
		acts = append(acts, consensus.EraSwitched{Era: e.era, Committee: e.committee.Addresses()})
	}
	return e.relayHeld(now, e.replayBuffered(now, acts))
}

// startInstance sets the era's committee — the chain's, in the era's
// rotation, or sorted by address under the ablation — and creates the
// inner PBFT engine if self is in it, otherwise leaves the node an
// observer.
func (e *Engine) startInstance(now consensus.Time, acts []consensus.Action) []consensus.Action {
	newCommittee := consensus.NewOrderedCommittee
	if e.cfg.ProposerPolicy == ProposerAddress {
		newCommittee = consensus.NewCommittee
	}
	com, err := newCommittee(e.chain.Endorsers())
	if err != nil {
		return acts
	}
	e.committee = com
	if !com.IsMember(e.self) {
		e.inner = nil
		return acts
	}
	durable := e.pendingDurable
	e.pendingDurable = nil
	icfg := pbft.Config{
		Era:                e.era,
		Committee:          com,
		Key:                e.cfg.Key,
		App:                &eraApp{Application: e.cfg.App, eng: e},
		StartHeight:        e.chain.Height() + 1,
		CheckpointInterval: e.cfg.CheckpointInterval,
		MaxInFlight:        e.cfg.MaxInFlight,
		WAL:                e.cfg.WAL,
		Durable:            durable,
		EvidenceSink: func(rec *evidence.Record) {
			e.evQueue = append(e.evQueue, rec)
		},
		Node: e.node,
	}
	inner, err := pbft.New(icfg)
	if err != nil {
		return acts
	}
	e.inner = inner
	e.view = inner.View()
	acts = append(acts, e.filterInner(now, inner.Init(now))...)
	return acts
}

// OnTimer implements consensus.Engine.
func (e *Engine) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	purpose, mine := e.timers[id]
	if !mine {
		if e.inner != nil && !e.switching {
			return e.filterInner(now, e.inner.OnTimer(now, id))
		}
		return nil
	}
	delete(e.timers, id)
	switch purpose {
	case tResume:
		return e.onResume(now)
	case tSyncRetry:
		return e.onSyncRetry()
	case tLagCheck:
		return e.onLagCheck()
	}
	return nil
}

// OnCommitApplied implements consensus.CommitNotifiable. The chain has
// just applied what the inner instance committed; if that included the
// boundary block of a switching era, the old instance halts here, before
// it could propose on the new head. Otherwise the notification goes on
// to the inner instance.
func (e *Engine) OnCommitApplied(now consensus.Time) []consensus.Action {
	if e.switching || e.inner == nil {
		return nil
	}
	if e.chain.Era() > e.era {
		return e.beginSwitch()
	}
	return e.filterInner(now, e.inner.OnCommitApplied(now))
}

// OnRequest implements consensus.Engine. During a switch the system
// refuses to process transactions; they wait in the pool (the runtime
// put tx there) and on the held list. So does a transaction handed to a
// node that has not run Init (no committee yet, no inner engine): sent
// to one member as an observer would, it would be taken for that
// member's committee-wide relay and sit in two pools until one of the
// two led a view.
func (e *Engine) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	if e.switching || e.committee == nil {
		e.node.Held.Add(tx)
		return nil
	}
	if e.inner != nil {
		return e.filterInner(now, e.inner.OnRequest(now, tx))
	}
	// Observer: spread client load across the committee deterministically
	// by the sender's own address. The member relays it to the committee,
	// which commits it on a chain this node does not follow: a copy kept
	// here would never leave the pool.
	target := e.committee.Member(int(e.self[0]) % e.committee.Size()).Address
	e.cfg.App.Pool().Drop(tx.ID())
	return []consensus.Action{consensus.Send{To: target, Env: pbft.NewRequest(e.cfg.Key, tx)}}
}

// OnEnvelope implements consensus.Engine.
func (e *Engine) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	switch env.MsgKind {
	case consensus.KindEraSwitch:
		return e.onAnnounce(now, env)
	case consensus.KindBlockSync:
		return e.onBlockSync(now, env)
	case consensus.KindRequest:
		if e.inner != nil && !e.switching {
			return e.filterInner(now, e.inner.OnEnvelope(now, env))
		}
		// No instance runs here: pool it ("refuses to process or commit"
		// holds, pool admission is neither), and hold or forward what this
		// node may alone hold. A member's relay, the backlog a switch hands
		// an added endorser among them, goes nowhere.
		if tx, only := pbft.PoolRequest(e.cfg.App, e.committee, env); only {
			return e.OnRequest(now, tx)
		}
		return nil
	default:
		// Intra-era consensus traffic.
		msgEra, ok := consensus.PeekEra(env)
		if !ok {
			return nil
		}
		if msgEra > e.era {
			// A peer finished its switch before us; hold the message
			// until our own switch completes.
			if len(e.buffered) < maxBuffered {
				e.buffered = append(e.buffered, env)
			}
			return nil
		}
		if e.inner == nil || e.switching || msgEra < e.era {
			return nil
		}
		// Name the sender, a position in this era's committee, once.
		if !env.Resolve(e.committee) {
			return nil
		}
		acts := e.maybeLagSync(env)
		acts = append(acts, e.filterInner(now, e.inner.OnEnvelope(now, env))...)
		return append(acts, e.maybeCertifiedSync(env)...)
	}
}

// relayHeld hands the held list to the request path of the era just
// begun: a node the switch demoted forwards each to a member. An
// endorser's instance relayed them already, ahead of its first proposal.
func (e *Engine) relayHeld(now consensus.Time, acts []consensus.Action) []consensus.Action {
	held := e.node.Held.Take()
	for i := range held {
		acts = append(acts, e.OnRequest(now, &held[i])...)
	}
	return acts
}

// maybeLagSync turns overheard commit votes that show this node has
// fallen behind into a block-sync pull — the restarted-mid-era case,
// where no EraAnnounce will arrive until the era actually switches. A
// commit for seq > height+1 does not show that by itself: the committee
// pipelines MaxInFlight slots, so commits for the whole window above
// the head are ordinary traffic for blocks this node is about to commit
// too, and pulling them would only ship them twice. Two things do show
// it. A commit beyond the window: pull at once. Or a commit inside the
// window while this node holds no proposal for its own next slot — but
// only if that lasts: under load a vote from one peer routinely
// overtakes the proposal from another by a few milliseconds, so the
// node pulls only when, one sync-retry period later, the commit still
// lies above its next slot and that slot's proposal is still missing.
// The vote itself still flows to the inner engine; the pull runs
// alongside it.
func (e *Engine) maybeLagSync(env *consensus.Envelope) []consensus.Action {
	if env.MsgKind != consensus.KindCommit {
		return nil
	}
	slot, ok := consensus.PeekSlot(env)
	seq := slot.Seq
	if !ok || seq <= e.chain.Height()+1 {
		return nil
	}
	if e.inner.BeyondWindow(seq) {
		return e.catchUp(byCommit, seq-1, env.From)
	}
	cu := &e.cu
	if next := e.inner.NextSeq(); seq <= next || e.inner.HasProposal(next) || cu.lagTID != 0 {
		return nil
	}
	// Suspicious, not conclusive: look again after the grace period. The
	// first such commit is kept — a later one would restart the doubt a
	// busy committee raises with every slot.
	cu.lagSeq, cu.lagFrom = seq, env.From
	cu.lagTID = e.cfg.Timers.Next()
	e.timers[cu.lagTID] = tLagCheck
	return []consensus.Action{consensus.StartTimer{ID: cu.lagTID, Delay: syncRetryBase}}
}

// maybeCertifiedSync pulls at once when the commit just delivered
// completed a certificate for a slot above the one this node executes
// next. That is proof, not suspicion: the slot is decided, and by the
// hash chain so is every block below it. A replica that missed a single
// commit vote, which the epidemic relay may lose, holds its next slot's
// proposal and raises no lag suspicion; this is how it catches up before
// its progress timer takes the stall for the primary's.
func (e *Engine) maybeCertifiedSync(env *consensus.Envelope) []consensus.Action {
	if env.MsgKind != consensus.KindCommit || e.inner == nil || e.switching {
		return nil
	}
	slot, ok := consensus.PeekSlot(env)
	if !ok || slot.Seq <= e.inner.NextSeq() || !e.inner.Certified(slot.Seq) {
		return nil
	}
	return e.catchUp(byCommit, slot.Seq-1, env.From)
}

// onLagCheck settles a lag suspicion: a node that keeps up has long
// executed the suspicious commit's slot, or at least holds its next
// slot's proposal.
func (e *Engine) onLagCheck() []consensus.Action {
	cu := &e.cu
	cu.lagTID = 0
	if e.inner == nil || e.switching {
		return nil
	}
	if next := e.inner.NextSeq(); cu.lagSeq <= next || e.inner.HasProposal(next) {
		return nil
	}
	return e.catchUp(byCommit, cu.lagSeq-1, cu.lagFrom)
}

// filterInner passes inner-engine actions through, then flushes any
// misbehavior evidence awaiting submission (detection may have fired
// during the very events that produced these actions).
func (e *Engine) filterInner(now consensus.Time, acts []consensus.Action) []consensus.Action {
	// A view change can leave this replica behind: the slots that
	// executed elsewhere before it began are in no prepared proof, and
	// when the others cannot form a quorum without it they commit nothing
	// it could overhear. So every view it enters opens with a catch-up.
	if e.inner != nil && e.inner.View() != e.view {
		e.view = e.inner.View()
		acts = append(acts, e.catchUp(byView, 0, gcrypto.Address{})...)
	}
	return e.flushEvidence(now, acts)
}

// flushEvidence turns pending misbehavior proofs — handed over by the
// inner engine's double-sign detector or derived by the chain from
// committed data — into evidence transactions and disseminates them
// like any client request. Submission is skipped for records already
// on-chain and offenders already convicted, so the steady state is
// quiet; the flushing guard stops the OnRequest re-entry into
// filterInner from recursing.
func (e *Engine) flushEvidence(now consensus.Time, acts []consensus.Action) []consensus.Action {
	if e.flushing || e.switching || e.inner == nil {
		return acts
	}
	recs, cur := e.chain.DetectedEvidence(e.evCursor)
	e.evCursor = cur
	if len(recs) == 0 && len(e.evQueue) == 0 {
		return acts
	}
	pending := append(e.evQueue, recs...)
	e.evQueue = nil
	e.flushing = true
	defer func() { e.flushing = false }()
	for _, rec := range pending {
		id := rec.ID()
		if e.evSubmitted[id] || e.chain.HasEvidence(id) {
			continue
		}
		convicted := true
		for _, a := range rec.Offenders {
			if !e.chain.IsBanned(a) {
				convicted = false
				break
			}
		}
		if convicted {
			continue // some other record already bans every offender
		}
		e.evSubmitted[id] = true
		tx := e.evidenceTx(now, rec)
		if e.cfg.App.SubmitTx(tx) != nil {
			continue
		}
		acts = append(acts, e.filterInner(now, e.inner.OnRequest(now, tx))...)
	}
	return acts
}

// evidenceTx wraps an evidence record into a signed transaction.
func (e *Engine) evidenceTx(now consensus.Time, rec *evidence.Record) *types.Transaction {
	tx := &types.Transaction{
		Type:    types.TxEvidence,
		Payload: evidence.Encode(rec),
		Geo: types.GeoInfo{
			Location:  e.ownLocation(),
			Timestamp: e.cfg.Epoch.Add(now),
		},
	}
	tx.Sign(e.cfg.Key)
	return tx
}

// ownLocation resolves this node's authenticated cell centre from the
// committee record (zero point when unknown).
func (e *Engine) ownLocation() geo.Point {
	if e.committee != nil {
		if i := e.committee.IndexOf(e.self); i >= 0 {
			if pt, err := geo.Decode(e.committee.Member(i).Geohash); err == nil {
				return pt
			}
		}
	}
	return geo.Point{}
}

// beginSwitch halts the old consensus once the chain has applied the
// boundary block of a switching era, and schedules the resume after the
// switch period ("during the period of an era switch, the system will
// refuse to process or commit any transactions").
func (e *Engine) beginSwitch() []consensus.Action {
	e.switching = true
	e.inner.Halt()
	id := e.cfg.Timers.Next()
	e.timers[id] = tResume
	return []consensus.Action{consensus.StartTimer{ID: id, Delay: e.chain.Policy().SwitchPeriod}}
}

// onResume completes the era switch: announce the new era to the
// endorsers it adds — the chain's committee members the ended era's
// committee lacks — then enter it.
func (e *Engine) onResume(now consensus.Time) []consensus.Action {
	e.switching = false
	e.eraSwitches++

	var adds []gcrypto.Address
	for _, m := range e.chain.Endorsers() {
		if !e.committee.IsMember(m.Address) {
			adds = append(adds, m.Address)
		}
	}
	var acts []consensus.Action
	announce := consensus.Seal(e.cfg.Key, &EraAnnounce{NewEra: e.chain.Era(), Height: e.chain.Height()})
	for _, addr := range adds {
		if addr != e.self {
			acts = append(acts, consensus.Send{To: addr, Env: announce})
		}
	}
	acts = e.sendBacklog(adds, acts)
	return e.enterEra(now, acts)
}

// replayBuffered hands the inner instance of the era just begun the
// consensus traffic that arrived for it early, and forgets the rest.
func (e *Engine) replayBuffered(now consensus.Time, acts []consensus.Action) []consensus.Action {
	pending := e.buffered
	e.buffered = nil
	if e.inner == nil {
		return acts
	}
	for _, env := range pending {
		if msgEra, ok := consensus.PeekEra(env); ok && msgEra == e.era {
			acts = append(acts, e.filterInner(now, e.inner.OnEnvelope(now, env))...)
		}
	}
	return acts
}

// sendBacklog gives the endorsers a switch adds the transactions relayed
// before it: every old member pools them and no added member does, so an
// added member leading the new era's first view would have nothing to
// propose while everyone else waits on it. One node sends — the proposer
// of the boundary block, which is the chain head (nothing commits during
// the pause) and names the same node to everyone — so a receiver's cost
// is bounded by the pool, whatever the committee size. Every member
// re-announcing its pool to every other cost each receiver n x pool
// envelopes in front of the new era's first pre-prepare.
func (e *Engine) sendBacklog(adds []gcrypto.Address, acts []consensus.Action) []consensus.Action {
	if len(adds) == 0 || e.chain.Head().Header.Proposer != e.self {
		return acts
	}
	for _, tx := range e.cfg.App.PendingList(maxBacklog) {
		env := pbft.NewRequest(e.cfg.Key, &tx)
		for _, addr := range adds {
			acts = append(acts, consensus.Send{To: addr, Env: env})
		}
	}
	return acts
}

// --- announcements and block sync ---

// onAnnounce takes an EraAnnounce from any key whose envelope
// consensus.Open verifies: the announcer is checked against no
// committee. A forged one costs the catch-up it starts: one block pull
// and its retry ladder, at most maxSyncRetries more requests; with
// snapshots on and a gap of FastSyncThreshold or more, a head poll of
// the committee first, which ends in that pull when no quorum holds a
// snapshot ahead (and reports SyncStats.Mode replay). Every block it
// could fetch is certificate-checked: it moves neither chain nor era.
func (e *Engine) onAnnounce(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var ann EraAnnounce
	if err := consensus.Open(env, consensus.KindEraSwitch, &ann); err != nil {
		return nil
	}
	if e.chain.Height() >= ann.Height {
		return e.maybeJoin(now)
	}
	return e.catchUp(byAnnounce, ann.Height, env.From)
}

// onBlockSync opens a block-sync envelope as the message its subtype
// names and hands it to the serving half or the catch-up.
func (e *Engine) onBlockSync(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var msg codec.Unmarshaler
	switch syncSubtype(env.Body) {
	case 1:
		msg = new(SyncRequest)
	case 2:
		msg = new(SyncResponse)
	case 3:
		msg = new(HeadRequest)
	case 4:
		msg = new(HeadResponse)
	case 5:
		msg = new(SnapshotRequest)
	case 6:
		msg = new(SnapshotResponse)
	default:
		return nil
	}
	if consensus.Open(env, consensus.KindBlockSync, msg) != nil {
		return nil
	}
	switch m := msg.(type) {
	case *SyncRequest:
		return e.serveSync(env.From, m.FromHeight)
	case *SyncResponse:
		return e.applySync(now, env.From, m)
	case *HeadRequest:
		return e.onHeadRequest(env.From)
	case *HeadResponse:
		return e.onHeadResponse(env.From, m)
	case *SnapshotRequest:
		return e.onSnapshotRequest(env.From, m)
	case *SnapshotResponse:
		return e.onSnapshotResponse(now, env.From, m)
	}
	return nil
}

// rotateWAL discards the finished era's consensus records. Best
// effort: if the rotation fails the stale records stay on disk, but
// recovery filters by era, so they are simply ignored after a crash.
func (e *Engine) rotateWAL() {
	if e.cfg.WAL != nil {
		_ = e.cfg.WAL.Rotate(e.era)
	}
	// Any not-yet-consumed recovered state belongs to a finished era.
	e.pendingDurable = nil
}

// maybeJoin enters the chain's era when sync or a snapshot install has
// carried the chain past the engine's, as an endorser or an observer,
// and joins the running era when the chain says this node endorses it.
func (e *Engine) maybeJoin(now consensus.Time) []consensus.Action {
	if e.switching {
		return nil
	}
	chainEra := e.chain.Era()
	if chainEra < e.era || chainEra == e.era && (e.inner != nil || !e.chain.IsEndorser(e.self)) {
		return nil
	}
	return e.enterEra(now, nil)
}

// eraApp wraps the node's application with the era switch's pipeline
// barrier (paper §IV-A2: the old committee halts at a switch). A block
// stamped past the era boundary ends the era, and the chain decides at
// that block whether the committee switches, so nothing is built on, or
// validated against, an in-flight parent that crossed the boundary: the
// window drains, the boundary block is applied, and then the era
// either goes on from the new head or halts for the switch.
type eraApp struct {
	pbft.Application
	eng *Engine
}

// errPastBoundary refuses a proposal that extends an in-flight boundary
// block.
var errPastBoundary = errors.New("gpbft: block extends an unapplied era boundary block")

// endsEra reports whether parent is an in-flight block that crossed the
// era boundary.
func (a *eraApp) endsEra(parent *types.Block) bool {
	return !types.SameBlock(parent, a.Head()) && a.eng.chain.CrossesBoundary(parent)
}

// BuildBlockOn implements pbft.Application.
func (a *eraApp) BuildBlockOn(now consensus.Time, era, view, seq uint64, parent *types.Block, exclude map[gcrypto.Hash]bool) *types.Block {
	if a.endsEra(parent) {
		return nil
	}
	return a.Application.BuildBlockOn(now, era, view, seq, parent, exclude)
}

// ValidateBlockOn implements pbft.Application.
func (a *eraApp) ValidateBlockOn(b, parent *types.Block) error {
	if a.endsEra(parent) {
		return errPastBoundary
	}
	return a.Application.ValidateBlockOn(b, parent)
}
