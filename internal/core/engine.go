package core

import (
	"bytes"
	"errors"
	"math"
	"time"

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
	// ProposerGeoTimer orders by descending geographic timer — the
	// paper's incentive bias ("A longer time in the geographic timer
	// will have a higher chance of generating a new block").
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

	// EraPeriod / SwitchPeriod override the chain policy when non-zero.
	EraPeriod    time.Duration
	SwitchPeriod time.Duration

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
	// DisableEraSwitch turns the era layer off (ablation: a static
	// committee forever).
	DisableEraSwitch bool
	// ForceEraSwitch performs a switch every T even when the election
	// changes nothing (an empty config change that only bumps the era).
	// This is the paper's literal behaviour ("Era switch will be made
	// every T seconds in our system") and produces the switch-period
	// latency outliers of Figure 3b.
	ForceEraSwitch bool
	// DisableEvidence stops this node from detecting misbehavior and
	// submitting evidence transactions (ablation knob, per-node). It
	// does NOT stop the node from validating and enforcing evidence
	// others commit — that is consensus state; the consensus-wide
	// enforcement ablation is Policy.DisableExpulsion in genesis.
	DisableEvidence bool

	// Snapshots, when set, enables snapshot-then-tail fast sync: this
	// node serves its retained snapshots to lagging peers and, when its
	// own lag exceeds FastSyncThreshold, installs a quorum-anchored
	// snapshot instead of replaying the gap block by block.
	Snapshots store.SnapshotProvider
	// FastSyncThreshold is the block gap at which snapshot sync is
	// preferred over tailing (0 = default 64).
	FastSyncThreshold uint64
	// SyncRetryBase / SyncRetryCap bound the capped-exponential backoff
	// on unanswered sync, head, and snapshot requests (0 = defaults
	// 500ms / 8s).
	SyncRetryBase time.Duration
	SyncRetryCap  time.Duration
}

// ConsensusWAL is the durable log the era layer threads into its inner
// PBFT instances: an append sink plus era rotation. *store.WAL and
// *store.MemWAL both satisfy it.
type ConsensusWAL interface {
	pbft.WAL
	Rotate(era uint64) error
}

// timer purposes of the era layer.
type tpurpose uint8

const (
	tEraTick tpurpose = iota + 1
	tResume
	tSyncRetry
	tLagCheck
)

// maxBuffered bounds the next-era message buffer.
const maxBuffered = 4096

// maxBacklog bounds the pending pool the proposer of a config block
// hands to the endorsers that block adds.
const maxBacklog = 128

// Engine is the G-PBFT era layer: a consensus.Engine that runs a fresh
// PBFT instance per era and orchestrates geographic authentication,
// era switches, block sync and announcements. Candidate nodes run the
// same engine in observer mode (no inner instance) until elected.
type Engine struct {
	cfg    Config
	self   gcrypto.Address
	chain  *ledger.Chain
	policy ledger.AdmittancePolicy

	era       uint64
	committee *consensus.Committee
	inner     *pbft.Engine // nil while not an endorser

	switching   bool
	pendingEra  uint64
	pendingAdds []gcrypto.Address

	timers   map[consensus.TimerID]tpurpose
	eraTID   consensus.TimerID
	resumeID consensus.TimerID

	buffered []*consensus.Envelope

	// held lists the transactions that entered this node's pool while it
	// ran no request path — before Init, or during the switch pause — and
	// that no other node may know: a local submission, or a request whose
	// sender is outside the committee (an observer's or client's single
	// send). A fellow member's relay is never held — its sender broadcast
	// it to everyone. Init and resume hand each to the request path once;
	// the list needs no cap, every entry passed pool admission.
	held []types.Transaction

	syncInFlight bool
	syncTarget   uint64

	// snapshot fast-sync state machine (sync.go).
	fsPhase    uint8
	fsHeads    map[gcrypto.Address]HeadResponse
	fsHeight   uint64
	fsRoot     gcrypto.Hash
	fsVoters   []gcrypto.Address
	fsVoterIdx int
	retryTID   consensus.TimerID
	retries    uint32
	retrySeq   uint64
	sstats     syncStats

	// Lag suspicion (maybeLagSync): the in-window commit that found this
	// node without a proposal for its next slot, and the grace timer
	// after which that still being so counts as having fallen behind.
	lagTID  consensus.TimerID
	lagSeq  uint64
	lagFrom gcrypto.Address

	// pendingDurable is the recovered consensus state awaiting the
	// first buildInstance; consumed exactly once (later instances start
	// fresh eras with no prior promises).
	pendingDurable *pbft.DurableState

	nonce uint64

	// Accountability: proofs handed over by the inner engine's
	// detector awaiting submission, the IDs this node has already
	// submitted, the chain-detected-evidence cursor, and the
	// re-entrancy guard for flushEvidence.
	evQueue     []*evidence.Record
	evSubmitted map[gcrypto.Hash]bool
	evCursor    int
	flushing    bool

	// stats
	eraSwitches  uint64
	switchPauses time.Duration
}

// New constructs a G-PBFT node engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Chain == nil || cfg.Key == nil || cfg.App == nil {
		return nil, errors.New("gpbft: config needs Chain, Key and App")
	}
	if cfg.Timers == nil {
		cfg.Timers = consensus.NewTimerAllocator()
	}
	policy := cfg.Chain.Policy()
	if cfg.EraPeriod == 0 {
		cfg.EraPeriod = policy.EraPeriod
	}
	if cfg.SwitchPeriod == 0 {
		cfg.SwitchPeriod = policy.SwitchPeriod
	}
	if cfg.FastSyncThreshold == 0 {
		cfg.FastSyncThreshold = 64
	}
	if cfg.SyncRetryBase == 0 {
		cfg.SyncRetryBase = 500 * time.Millisecond
	}
	if cfg.SyncRetryCap == 0 {
		cfg.SyncRetryCap = 8 * time.Second
	}
	return &Engine{
		cfg:         cfg,
		self:        cfg.Key.Address(),
		chain:       cfg.Chain,
		policy:      policy,
		timers:      make(map[consensus.TimerID]tpurpose),
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
	var acts []consensus.Action
	acts = e.buildInstance(now, acts)
	acts = e.armEraTimer(acts)
	if restarted {
		// A restarted node may have missed commits (and even era
		// switches) while it was down: pull from the committee through
		// the ordinary sync path before relying on timers to notice.
		acts = e.requestCatchUp(acts)
	}
	return e.relayHeld(now, acts)
}

// requestCatchUp asks the committee for blocks beyond our head. The
// responses flow through the certificate-checked applySync path; peers
// that have nothing newer simply stay silent. With snapshots enabled
// the node instead opens with a head poll: if a quorum agrees on a
// checkpoint ahead of us, the gap is crossed by snapshot; otherwise
// the machinery degrades to the same block pull.
func (e *Engine) requestCatchUp(acts []consensus.Action) []consensus.Action {
	if e.cfg.Snapshots != nil {
		return append(acts, e.startFastSync(e.chain.Height())...)
	}
	com := e.committee
	if com == nil {
		var err error
		if com, err = e.buildCommittee(); err != nil {
			return acts
		}
	}
	req := consensus.Seal(e.cfg.Key, &SyncRequest{FromHeight: e.chain.Height() + 1})
	for _, addr := range com.Others(e.self) {
		acts = append(acts, consensus.Send{To: addr, Env: req})
	}
	return acts
}

// buildCommittee derives the era committee from chain state, ordered
// per the proposer policy.
func (e *Engine) buildCommittee() (*consensus.Committee, error) {
	members := e.chain.Endorsers()
	if e.cfg.ProposerPolicy == ProposerGeoTimer {
		members = OrderByGeoTimer(members, e.chain.Table())
	}
	return consensus.NewOrderedCommittee(members)
}

// buildInstance (re)creates the inner PBFT engine if self is in the
// committee, otherwise leaves the node an observer.
func (e *Engine) buildInstance(now consensus.Time, acts []consensus.Action) []consensus.Action {
	com, err := e.buildCommittee()
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
		Timers:             e.cfg.Timers,
		StartHeight:        e.chain.Height() + 1,
		CheckpointInterval: e.cfg.CheckpointInterval,
		ViewChangeTimeout:  e.cfg.ViewChangeTimeout,
		MaxInFlight:        e.cfg.MaxInFlight,
		WAL:                e.cfg.WAL,
		Durable:            durable,
	}
	if !e.cfg.DisableEvidence {
		icfg.EvidenceSink = func(rec *evidence.Record) {
			e.evQueue = append(e.evQueue, rec)
		}
	}
	inner, err := pbft.New(icfg)
	if err != nil {
		return acts
	}
	e.inner = inner
	acts = append(acts, e.filterInner(now, inner.Init(now))...)
	return acts
}

// armEraTimer schedules the next Algorithm 1 pass ("Algorithm 1 will
// be executed every T seconds").
func (e *Engine) armEraTimer(acts []consensus.Action) []consensus.Action {
	if e.cfg.DisableEraSwitch || e.inner == nil {
		return acts
	}
	id := e.cfg.Timers.Next()
	e.eraTID = id
	e.timers[id] = tEraTick
	return append(acts, consensus.StartTimer{ID: id, Delay: e.cfg.EraPeriod})
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
	case tEraTick:
		return e.onEraTick(now)
	case tResume:
		return e.onResume(now)
	case tSyncRetry:
		return e.onSyncRetry(now)
	case tLagCheck:
		return e.onLagCheck()
	}
	return nil
}

// OnCommitApplied implements consensus.CommitNotifiable by forwarding
// to the inner era instance.
func (e *Engine) OnCommitApplied(now consensus.Time) []consensus.Action {
	if e.switching || e.inner == nil {
		return nil
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
		e.hold(tx)
		return nil
	}
	if e.inner != nil {
		return e.filterInner(now, e.inner.OnRequest(now, tx))
	}
	// Observer: relay to the first known endorser.
	if e.committee.Size() == 0 {
		return nil
	}
	// Spread client load across the committee deterministically by the
	// sender's own address.
	target := e.committee.Member(int(e.self[0]) % e.committee.Size()).Address
	env := consensus.Seal(e.cfg.Key, &pbft.Request{Tx: *tx})
	return []consensus.Action{consensus.Send{To: target, Env: env}}
}

// OnEnvelope implements consensus.Engine.
func (e *Engine) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	switch env.MsgKind {
	case consensus.KindEraSwitch:
		return e.onAnnounce(now, env)
	case consensus.KindBlockSync:
		return e.onBlockSync(now, env)
	case consensus.KindRequest:
		if e.switching || e.inner == nil {
			e.poolRequest(env)
			return nil
		}
		return e.filterInner(now, e.inner.OnEnvelope(now, env))
	default:
		// Intra-era consensus traffic.
		msgEra, ok := consensus.PeekEra(env)
		if !ok {
			return nil
		}
		if msgEra > e.era || (e.switching && msgEra == e.pendingEra) {
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
		acts := e.maybeLagSync(env)
		return append(acts, e.filterInner(now, e.inner.OnEnvelope(now, env))...)
	}
}

// poolRequest admits a request that reaches this node while it runs no
// consensus — in the switch pause, or elected and still syncing toward
// its first era, when the backlog arrives (see onResume) — to the pool
// and relays nothing: "refuses to process or commit" holds, pool
// admission is neither. A request is never dropped because the node is
// between eras.
func (e *Engine) poolRequest(env *consensus.Envelope) {
	tx, err := pbft.OpenRequest(env)
	if err != nil || e.cfg.App.SubmitTx(tx) != nil {
		return
	}
	if e.switching && !e.committee.IsMember(env.From) {
		e.hold(tx)
	}
}

// hold remembers a pooled transaction that only this node may know.
func (e *Engine) hold(tx *types.Transaction) {
	e.held = append(e.held, *tx)
	e.sstats.reqHeld.Add(1)
}

// relayHeld hands the held transactions to the request path of the era
// that has just begun, once each: an endorser relays them to the new
// committee, a node the switch demoted forwards them to a member as any
// observer would.
func (e *Engine) relayHeld(now consensus.Time, acts []consensus.Action) []consensus.Action {
	held := e.held
	e.held = nil
	for i := range held {
		e.sstats.reqRerelayed.Add(1)
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
		return e.lagPull(seq, env.From)
	}
	if next := e.inner.NextSeq(); seq <= next || e.inner.HasProposal(next) || e.lagTID != 0 {
		return nil
	}
	// Suspicious, not conclusive: look again after the grace period. The
	// first such commit is kept — a later one would restart the doubt a
	// busy committee raises with every slot.
	e.lagSeq, e.lagFrom = seq, env.From
	e.lagTID = e.cfg.Timers.Next()
	e.timers[e.lagTID] = tLagCheck
	return []consensus.Action{consensus.StartTimer{ID: e.lagTID, Delay: e.cfg.SyncRetryBase}}
}

// onLagCheck settles a lag suspicion: a node that keeps up has long
// executed the suspicious commit's slot, or at least holds its next
// slot's proposal.
func (e *Engine) onLagCheck() []consensus.Action {
	e.lagTID = 0
	if e.inner == nil || e.switching {
		return nil
	}
	if next := e.inner.NextSeq(); e.lagSeq <= next || e.inner.HasProposal(next) {
		return nil
	}
	return e.lagPull(e.lagSeq, e.lagFrom)
}

// lagPull asks from, whose commit for seq proved blocks up to seq-1
// exist on its chain, for the blocks above this node's head.
func (e *Engine) lagPull(seq uint64, from gcrypto.Address) []consensus.Action {
	// While the snapshot state machine runs, just track the moving
	// head; the tail pull after the install covers it.
	if e.fsPhase != fsIdle {
		if seq-1 > e.syncTarget {
			e.syncTarget = seq - 1
		}
		return nil
	}
	// Suppress duplicate pulls while one is in flight, but allow a
	// re-request when the head keeps moving past the current target
	// (covers a lost response: the next commit re-arms the sync).
	if e.syncInFlight && e.syncTarget >= seq-1 {
		return nil
	}
	if e.fastSyncDue(seq - 1) {
		return e.startFastSync(seq - 1)
	}
	e.syncInFlight = true
	e.syncTarget = seq - 1
	e.sstats.lagPulls.Add(1)
	req := consensus.Seal(e.cfg.Key, &SyncRequest{FromHeight: e.chain.Height() + 1})
	return e.armSyncRetry([]consensus.Action{consensus.Send{To: from, Env: req}})
}

// filterInner passes inner-engine actions through, watching committed
// blocks for the era-switch configuration transaction, then flushes
// any misbehavior evidence awaiting submission (detection may have
// fired during the very events that produced these actions).
func (e *Engine) filterInner(now consensus.Time, acts []consensus.Action) []consensus.Action {
	if e.inner != nil {
		// Every delivery to the inner engine passes through here: fold its
		// counts into totals that outlive the era instance.
		if c := e.inner.TakeCounts(); c != (pbft.Counts{}) {
			e.sstats.votesVerified.Add(c.VotesVerified)
			e.sstats.votesSurplus.Add(c.VotesSurplus)
			e.sstats.reqHeld.Add(c.RequestsHeld)
			e.sstats.reqRerelayed.Add(c.RequestsRerelayed)
			e.sstats.propHeld.Add(c.ProposalsHeld)
			e.sstats.propHeldFired.Add(c.ProposalsHeldFired)
		}
	}
	out := acts
	if len(acts) > 0 {
		out = make([]consensus.Action, 0, len(acts)+2)
		for _, a := range acts {
			out = append(out, a)
			cb, ok := a.(consensus.CommitBlock)
			if !ok || e.switching {
				continue
			}
			for i := range cb.Block.Txs {
				tx := &cb.Block.Txs[i]
				if tx.Type != types.TxConfig {
					continue
				}
				change, err := types.DecodeConfigChange(tx.Payload)
				if err != nil || change.NewEra != e.era+1 {
					continue
				}
				out = e.beginSwitch(change, out)
				break
			}
		}
	}
	return e.flushEvidence(now, out)
}

// flushEvidence turns pending misbehavior proofs — handed over by the
// inner engine's double-sign detector or derived by the chain from
// committed data — into evidence transactions and disseminates them
// like any client request. Submission is skipped for records already
// on-chain and offenders already convicted, so the steady state is
// quiet; the flushing guard stops the OnRequest re-entry into
// filterInner from recursing.
func (e *Engine) flushEvidence(now consensus.Time, acts []consensus.Action) []consensus.Action {
	if e.cfg.DisableEvidence || e.flushing || e.switching || e.inner == nil {
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
	e.nonce++
	tx := &types.Transaction{
		Type:    types.TxEvidence,
		Nonce:   (e.chain.Height()+1)<<16 | e.nonce,
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

// beginSwitch halts the old consensus and schedules the resume after
// the switch period ("during the period of an era switch, the system
// will refuse to process or commit any transactions").
func (e *Engine) beginSwitch(change *types.ConfigChange, acts []consensus.Action) []consensus.Action {
	e.switching = true
	e.pendingEra = change.NewEra
	e.pendingAdds = make([]gcrypto.Address, 0, len(change.Add))
	for _, add := range change.Add {
		e.pendingAdds = append(e.pendingAdds, add.Address)
	}
	if e.inner != nil {
		e.inner.Halt()
	}
	if e.eraTID != 0 {
		acts = append(acts, consensus.StopTimer{ID: e.eraTID})
		delete(e.timers, e.eraTID)
		e.eraTID = 0
	}
	id := e.cfg.Timers.Next()
	e.resumeID = id
	e.timers[id] = tResume
	e.switchPauses += e.cfg.SwitchPeriod
	return append(acts, consensus.StartTimer{ID: id, Delay: e.cfg.SwitchPeriod})
}

// onResume completes the era switch: the chain has applied the config
// transaction by now, so rebuild the committee and relaunch consensus.
func (e *Engine) onResume(now consensus.Time) []consensus.Action {
	e.switching = false
	e.resumeID = 0
	newEra := e.chain.Era()
	if newEra < e.pendingEra {
		// The config block has not been applied locally (should not
		// happen: we observed its commit); stay in the old era.
		e.pendingEra = 0
		return e.armEraTimer(nil)
	}
	e.era = newEra
	e.eraSwitches++
	e.rotateWAL()

	var acts []consensus.Action
	// Announce to the freshly added endorsers so they sync and join.
	announce := consensus.Seal(e.cfg.Key, &EraAnnounce{NewEra: e.era, Height: e.chain.Height()})
	for _, addr := range e.pendingAdds {
		if addr != e.self {
			acts = append(acts, consensus.Send{To: addr, Env: announce})
		}
	}
	acts = e.sendBacklog(acts)
	e.pendingAdds = nil

	acts = e.buildInstance(now, acts)
	acts = e.armEraTimer(acts)
	if e.committee != nil {
		acts = append(acts, consensus.EraSwitched{Era: e.era, Committee: e.committee.Addresses()})
	}
	// Replay consensus traffic that arrived for the new era while we
	// were still switching.
	if e.inner != nil && len(e.buffered) > 0 {
		pending := e.buffered
		e.buffered = nil
		for _, env := range pending {
			if msgEra, ok := consensus.PeekEra(env); ok && msgEra == e.era {
				acts = append(acts, e.filterInner(now, e.inner.OnEnvelope(now, env))...)
			}
		}
	} else {
		e.buffered = nil
	}
	return e.relayHeld(now, acts)
}

// sendBacklog gives the endorsers a switch adds the transactions relayed
// before it: every old member pools them and no added member does, so an
// added member leading the new era's first view would have nothing to
// propose while everyone else waits on it. One node sends — the proposer
// of the config block, which is the chain head (nothing commits during
// the pause) and names the same node to everyone — so a receiver's cost
// is bounded by the pool, whatever the committee size. Every member
// re-announcing its pool to every other cost each receiver n x pool
// envelopes in front of the new era's first pre-prepare.
func (e *Engine) sendBacklog(acts []consensus.Action) []consensus.Action {
	if len(e.pendingAdds) == 0 || e.chain.Head().Header.Proposer != e.self {
		return acts
	}
	for _, tx := range e.cfg.App.PendingList(maxBacklog) {
		env := consensus.Seal(e.cfg.Key, &pbft.Request{Tx: tx})
		for _, addr := range e.pendingAdds {
			acts = append(acts, consensus.Send{To: addr, Env: env})
		}
	}
	return acts
}

// onEraTick runs Algorithm 1 and, when this node leads the current
// view, proposes the configuration transaction for the next era.
func (e *Engine) onEraTick(now consensus.Time) []consensus.Action {
	e.eraTID = 0
	if e.switching || e.inner == nil {
		return e.armEraTimer(nil)
	}
	// Memory hygiene (election-table and witness pruning) happens in the
	// ledger when a config transaction commits: every node prunes at the
	// same committed block, keeping the canonical ChainState — and hence
	// snapshot roots — byte-identical across the committee.
	var acts []consensus.Action
	res := RunElection(e.chain, e.chain.Head().Header.Timestamp)
	due := !res.Stalled && (!res.IsEmpty() || e.cfg.ForceEraSwitch)
	if due && e.inner.Primary() == e.self && !e.inner.InViewChange() {
		tx := e.configTx(now, res.Change(e.era+1))
		if e.cfg.App.SubmitTx(tx) == nil {
			acts = append(acts, e.filterInner(now, e.inner.OnRequest(now, tx))...)
		}
	}
	return e.armEraTimer(acts)
}

// configTx crafts the signed configuration transaction carrying the
// election outcome.
func (e *Engine) configTx(now consensus.Time, change *types.ConfigChange) *types.Transaction {
	e.nonce++
	tx := &types.Transaction{
		Type:    types.TxConfig,
		Nonce:   (e.chain.Height()+1)<<16 | e.nonce,
		Payload: types.EncodeConfigChange(change),
		Geo: types.GeoInfo{
			Location:  e.ownLocation(),
			Timestamp: e.cfg.Epoch.Add(now),
		},
	}
	tx.Sign(e.cfg.Key)
	return tx
}

// expectedChange computes the deterministic election outcome every
// honest endorser expects in the next config transaction, or nil when
// no switch is due.
func (e *Engine) expectedChange() *types.ConfigChange {
	res := RunElection(e.chain, e.chain.Head().Header.Timestamp)
	if res.Stalled || (res.IsEmpty() && !e.cfg.ForceEraSwitch) {
		return nil
	}
	return res.Change(e.chain.Era() + 1)
}

// --- announcements and block sync ---

func (e *Engine) onAnnounce(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	var ann EraAnnounce
	if err := consensus.Open(env, consensus.KindEraSwitch, &ann); err != nil {
		return nil
	}
	// Only accept pokes from accounts we know on-chain (the announcer
	// was an endorser when it mattered; a bogus poke costs one sync
	// round trip at worst, and the sync response is certificate-checked).
	if e.chain.Height() >= ann.Height {
		return e.maybeJoin(now)
	}
	if e.fsPhase != fsIdle {
		if ann.Height > e.syncTarget {
			e.syncTarget = ann.Height
		}
		return nil
	}
	if e.syncInFlight && e.syncTarget >= ann.Height {
		return nil
	}
	if e.fastSyncDue(ann.Height) {
		return e.startFastSync(ann.Height)
	}
	e.syncInFlight = true
	e.syncTarget = ann.Height
	req := consensus.Seal(e.cfg.Key, &SyncRequest{FromHeight: e.chain.Height() + 1})
	return e.armSyncRetry([]consensus.Action{consensus.Send{To: env.From, Env: req}})
}

func (e *Engine) onBlockSync(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	switch syncSubtype(env.Body) {
	case 1:
		var req SyncRequest
		if err := consensus.Open(env, consensus.KindBlockSync, &req); err != nil {
			return nil
		}
		return e.serveSync(env.From, req.FromHeight)
	case 2:
		var resp SyncResponse
		if err := consensus.Open(env, consensus.KindBlockSync, &resp); err != nil {
			return nil
		}
		return e.applySync(now, env.From, &resp)
	case 3:
		var req HeadRequest
		if err := consensus.Open(env, consensus.KindBlockSync, &req); err != nil {
			return nil
		}
		return e.onHeadRequest(env.From)
	case 4:
		var resp HeadResponse
		if err := consensus.Open(env, consensus.KindBlockSync, &resp); err != nil {
			return nil
		}
		return e.onHeadResponse(now, env.From, &resp)
	case 5:
		var req SnapshotRequest
		if err := consensus.Open(env, consensus.KindBlockSync, &req); err != nil {
			return nil
		}
		return e.onSnapshotRequest(env.From, &req)
	case 6:
		var resp SnapshotResponse
		if err := consensus.Open(env, consensus.KindBlockSync, &resp); err != nil {
			return nil
		}
		return e.onSnapshotResponse(now, env.From, &resp)
	default:
		return nil
	}
}

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
	env := consensus.Seal(e.cfg.Key, resp)
	return []consensus.Action{consensus.Send{To: to, Env: env}}
}

// applySync applies certificate-carrying blocks directly through the
// application (AddBlock verifies certificates against the committee as
// of each height), then joins the new era if elected. Each applied
// block is also surfaced as an Applied CommitBlock action so the
// runtime persists it — without that, synced blocks would exist only
// in memory and vanish at the next restart.
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
		e.retries = 0 // the peer is answering; restart the backoff ladder
	}
	// Keep a live inner instance aligned with the new head: sync can
	// race normal consensus when this node lags inside its own era.
	if e.inner != nil && !e.switching && e.chain.Era() == e.era && e.chain.Height() >= e.inner.NextSeq() {
		acts = append(acts, e.filterInner(now, e.inner.AdvanceTo(now, e.chain.Height()))...)
	}
	e.syncInFlight = false
	if e.chain.Height() < e.syncTarget {
		// Partial response: keep pulling.
		e.syncInFlight = true
		req := consensus.Seal(e.cfg.Key, &SyncRequest{FromHeight: e.chain.Height() + 1})
		acts = append(acts, consensus.Send{To: from, Env: req})
		return e.armSyncRetry(acts)
	}
	acts = e.stopSyncRetry(acts)
	return append(acts, e.maybeJoin(now)...)
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

// maybeJoin starts participation when the chain says this node is an
// endorser of an era newer than the engine's.
func (e *Engine) maybeJoin(now consensus.Time) []consensus.Action {
	if e.switching {
		return nil
	}
	chainEra := e.chain.Era()
	if chainEra < e.era || (chainEra == e.era && e.inner != nil) {
		return nil
	}
	if !e.chain.IsEndorser(e.self) {
		// Stay an observer but track the era.
		e.era = chainEra
		e.inner = nil
		return nil
	}
	e.era = chainEra
	e.rotateWAL()
	var acts []consensus.Action
	acts = e.buildInstance(now, acts)
	acts = e.armEraTimer(acts)
	if e.committee != nil {
		acts = append(acts, consensus.EraSwitched{Era: e.era, Committee: e.committee.Addresses()})
	}
	// Replay buffered traffic for this era.
	if e.inner != nil && len(e.buffered) > 0 {
		pending := e.buffered
		e.buffered = nil
		for _, env := range pending {
			if msgEra, ok := consensus.PeekEra(env); ok && msgEra == e.era {
				acts = append(acts, e.filterInner(now, e.inner.OnEnvelope(now, env))...)
			}
		}
	}
	return e.relayHeld(now, acts)
}

// eraApp wraps the node's application to enforce era-switch semantics
// on proposals: at most one configuration transaction per block, and
// it must equal the election outcome every honest endorser computes
// from the same committed state.
type eraApp struct {
	pbft.Application
	eng *Engine
}

// BuildBlock filters stale or foreign config transactions out of the
// proposal (they would be rejected by validators and stall the view).
// Filtered config transactions are DROPPED from the pool: a stale one
// left at the head of the FIFO would wedge proposals forever once it
// became the only buildable transaction.
func (a *eraApp) BuildBlock(now consensus.Time, era, view, seq uint64) *types.Block {
	b := a.Application.BuildBlock(now, era, view, seq)
	if b == nil {
		return nil
	}
	var expected []byte
	expectedComputed := false
	keep := b.Txs[:0]
	configKept := false
	for i := range b.Txs {
		tx := b.Txs[i]
		if tx.Type == types.TxConfig {
			drop := false
			if configKept {
				drop = true
			} else {
				if !expectedComputed {
					expectedComputed = true
					if ch := a.eng.expectedChange(); ch != nil {
						expected = types.EncodeConfigChange(ch)
					}
				}
				drop = expected == nil || !bytes.Equal(tx.Payload, expected)
			}
			if drop {
				a.eng.cfg.App.Pool().Drop(tx.ID())
				continue
			}
			configKept = true
		}
		keep = append(keep, tx)
	}
	if len(keep) == 0 {
		return nil
	}
	if len(keep) != len(b.Txs) {
		return types.NewBlock(b.Header, append([]types.Transaction(nil), keep...))
	}
	return b
}

// BuildBlockOn implements pbft.SpeculativeApplication for pipelined
// slots. Configuration transactions are a pipeline barrier: they only
// travel through the serial path (seq == head+1, via BuildBlock), where
// era semantics are judged against the committed head. A speculative
// build that would carry one returns nil instead, so the window drains
// and the switch proposal goes out serially; nothing is ever built on
// top of a config-carrying parent.
func (a *eraApp) BuildBlockOn(now consensus.Time, era, view, seq uint64, parent *types.Block, exclude map[gcrypto.Hash]bool) *types.Block {
	app, ok := a.Application.(pbft.SpeculativeApplication)
	if !ok {
		return nil
	}
	if blockHasConfig(parent) {
		return nil // an era switch is landing; let it finish first
	}
	b := app.BuildBlockOn(now, era, view, seq, parent, exclude)
	if b == nil || blockHasConfig(b) {
		return nil
	}
	return b
}

// ValidateBlockOn implements pbft.SpeculativeApplication, mirroring the
// build-side barrier: no configuration transaction is acceptable on the
// speculative path, and no block may extend a config-carrying parent.
func (a *eraApp) ValidateBlockOn(b, parent *types.Block) error {
	if blockHasConfig(parent) {
		return errors.New("gpbft: speculative child of a config block")
	}
	if blockHasConfig(b) {
		return errors.New("gpbft: config transaction outside the serial path")
	}
	app, ok := a.Application.(pbft.SpeculativeApplication)
	if !ok {
		return errors.New("gpbft: application does not support speculative validation")
	}
	return app.ValidateBlockOn(b, parent)
}

// MinSpeculativeBatch implements pbft.SpeculativeApplication. An
// application without the speculative surface never builds on an
// in-flight parent, which no pool depth can satisfy.
func (a *eraApp) MinSpeculativeBatch() int {
	if app, ok := a.Application.(pbft.SpeculativeApplication); ok {
		return app.MinSpeculativeBatch()
	}
	return math.MaxInt
}

// blockHasConfig reports whether any transaction in b is a TxConfig.
func blockHasConfig(b *types.Block) bool {
	for i := range b.Txs {
		if b.Txs[i].Type == types.TxConfig {
			return true
		}
	}
	return false
}

// ValidateBlock additionally checks proposed config transactions
// against the locally computed election outcome.
func (a *eraApp) ValidateBlock(b *types.Block) error {
	configs := 0
	var expected []byte
	expectedComputed := false
	for i := range b.Txs {
		tx := &b.Txs[i]
		if tx.Type != types.TxConfig {
			continue
		}
		configs++
		if configs > 1 {
			return errors.New("gpbft: multiple config transactions in one block")
		}
		if !expectedComputed {
			expectedComputed = true
			if ch := a.eng.expectedChange(); ch != nil {
				expected = types.EncodeConfigChange(ch)
			}
		}
		if expected == nil {
			return errors.New("gpbft: unexpected config transaction (no switch due)")
		}
		if !bytes.Equal(tx.Payload, expected) {
			return errors.New("gpbft: config transaction disagrees with local election")
		}
	}
	return a.Application.ValidateBlock(b)
}
