package gpbft

import (
	"errors"
	"fmt"
	"time"

	"gpbft/internal/byzantine"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/simnet"
)

// Options configures a simulated cluster. The fields are grouped as
// README.md's cluster-options table is: paper policy, engine, armor,
// gossip, snapshots, shard, and run.
type Options struct {
	// --- paper policy: the genesis admittance policy (Section III-C) ---
	MinEndorsers int
	MaxEndorsers int
	// GenesisEndorsers sets the size of the initial core-node
	// committee. Zero means "as many nodes as the cap allows"
	// (min(Nodes, MaxEndorsers)). Set it below MaxEndorsers to leave
	// room for candidates to be elected through era switches.
	GenesisEndorsers    int
	EraPeriod           time.Duration
	SwitchPeriod        time.Duration
	QualificationWindow time.Duration
	ReportInterval      time.Duration
	MinReports          int
	// MinWitnesses enables witness supervision: candidates need this
	// many endorser confirmations of their claimed cell (0 = off).
	MinWitnesses int
	// WitnessRangeMeters bounds credible witness distance (0 = any).
	WitnessRangeMeters float64
	// Region is the deployment area; devices are laid out inside it.
	Region geo.Region

	// --- engine ---
	BatchSize int
	// ViewChangeTimeout, when non-zero, fixes the base of every consensus
	// liveness timer (progress, slot, view-change retry, hold cap). Zero
	// lets each replica take it from the rounds it times (DESIGN.md,
	// "Failure detection").
	ViewChangeTimeout time.Duration
	// GeoTimerProposer orders the committee by geographic timer (the
	// incentive bias). Only meaningful under GPBFT.
	GeoTimerProposer bool
	// DisableEraSwitch freezes the committee (ablation): the genesis era
	// rule is ledger.ErasFrozen. It wins over ForceEraSwitch.
	DisableEraSwitch bool
	// ForceEraSwitch switches eras every EraPeriod even when the
	// election changes nothing (ledger.ErasForced) — the paper's literal
	// schedule, which produces the switch-period latency outliers of
	// Figure 3b. With neither flag the chain switches when the election
	// changes the committee (ledger.ErasElect).
	ForceEraSwitch bool

	// --- armor ---
	// RateLimit enables the overload armor on every node: per-identity
	// token-bucket admission at this sustained tx/s, priority lanes in
	// the mempool (weights 8/4/1, fair share 16 pending), and the
	// graceful-degradation shed controller (levels at 0.50/0.75/0.90 of
	// the pool). 0 keeps the pool to one lane and the submit path
	// unguarded — exactly the pre-armor behaviour (the ablation baseline).
	RateLimit float64

	// --- gossip ---
	// Gossip replaces all-to-all consensus broadcast with an epidemic
	// relay: each node queues its broadcasts and periodically flushes
	// them as one batched relay frame to ⌈log₂(n+1)⌉+1 random committee
	// peers, with a round-scoped dupemap suppressing re-deliveries.
	// Off keeps the direct per-peer broadcast path bit-for-bit (the
	// ablation baseline, like RateLimit 0 for the overload armor).
	Gossip bool

	// --- snapshots ---
	// Snapshots enables signed era snapshots (GPBFT only): every era
	// boundary each node exports its canonical chain state, signs it,
	// and retains the newest two (store.DefaultRetainSnapshots). A node
	// that lags by the engine's fast-sync threshold (64 blocks) then
	// syncs snapshot-then-tail instead of replaying every block.
	Snapshots bool

	// --- shard ---
	// ShardRegions splits the deployment into this many geohash-prefix
	// regions, each running its own full consensus instance over a
	// region-local committee, anchored by a top-level checkpoint
	// committee (NewShardCluster). 0 or 1 keeps the single-region
	// cluster bit-for-bit. Only consulted by NewShardCluster; plain
	// NewCluster ignores it.
	ShardRegions int
	// AnchorPeriod is the interval at which region delegates emit
	// signed region checkpoints to the anchor committee and destination
	// regions apply anchored transfer receipts (0 = default 500ms).
	AnchorPeriod time.Duration
	// EndorserEndowment is the genesis balance credited to each
	// committee member. Transfer locks debit the sender, so sharded
	// runs need funded senders; NewShardCluster defaults this to
	// DefaultEndorserEndowment when zero. Plain clusters keep the
	// historical zero (fees are the only income).
	EndorserEndowment uint64

	// --- run ---
	// Protocol selects PBFT (baseline) or GPBFT.
	Protocol Protocol
	// Nodes is the total number of IoT nodes in the system (the
	// paper's n). Under PBFT all of them form the consensus group;
	// under GPBFT the committee is capped at MaxEndorsers and the rest
	// are clients/candidates.
	Nodes int
	// Seed drives every random choice; same seed ⇒ identical run.
	Seed int64
	// Network is the simulated network/node model.
	Network NetworkProfile
	// Epoch anchors simulated time to wall-clock timestamps.
	Epoch time.Time
	// Byzantine assigns adversarial behaviour to node indices. The
	// protocol tolerates fewer than one third faulty committee members
	// (the paper's threat model); exceeding that voids all guarantees.
	Byzantine map[int]Fault
}

// Fault selects an adversarial behaviour for a node; byzantine.Wrap
// documents each one.
type Fault = byzantine.Fault

// The faults Options.Byzantine assigns.
const (
	Honest             = byzantine.Honest
	FaultSilent        = byzantine.FaultSilent
	FaultEquivocate    = byzantine.FaultEquivocate
	FaultWithholdVotes = byzantine.FaultWithholdVotes
	FaultDoubleVote    = byzantine.FaultDoubleVote
)

// DefaultOptions returns the paper's experiment configuration for the
// given protocol and node count: min 4 / max 40 endorsers, the LAN
// profile, and a one-second era period scaled for simulation.
func DefaultOptions(p Protocol, nodes int) Options {
	return Options{
		Protocol:            p,
		Nodes:               nodes,
		Seed:                1,
		Network:             LANProfile(),
		MinEndorsers:        ledger.DefaultMinEndorsers,
		MaxEndorsers:        ledger.DefaultMaxEndorsers,
		EraPeriod:           10 * time.Second,
		SwitchPeriod:        ledger.DefaultSwitchPeriod,
		QualificationWindow: 30 * time.Second, // scaled-down 72 h for simulation
		ReportInterval:      time.Second,
		MinReports:          3,
		Region:              geo.NewRegion(geo.Point{Lng: 114.175, Lat: 22.300}, geo.Point{Lng: 114.185, Lat: 22.310}),
		BatchSize:           32,
		GeoTimerProposer:    true,
		Epoch:               time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC),
	}
}

// validate normalizes and checks the options.
func (o *Options) validate() error {
	if o.Nodes < 4 {
		return errors.New("gpbft: need at least 4 nodes")
	}
	if o.MinEndorsers == 0 {
		o.MinEndorsers = ledger.DefaultMinEndorsers
	}
	if o.MaxEndorsers == 0 {
		o.MaxEndorsers = ledger.DefaultMaxEndorsers
	}
	if o.MinEndorsers < 4 || o.MaxEndorsers < o.MinEndorsers {
		return fmt.Errorf("gpbft: bad endorser bounds [%d, %d]", o.MinEndorsers, o.MaxEndorsers)
	}
	if o.EraPeriod == 0 {
		o.EraPeriod = ledger.DefaultEraPeriod
	}
	if o.SwitchPeriod == 0 {
		o.SwitchPeriod = ledger.DefaultSwitchPeriod
	}
	if o.QualificationWindow == 0 {
		o.QualificationWindow = ledger.DefaultQualificationWindow
	}
	if o.ReportInterval == 0 {
		o.ReportInterval = ledger.DefaultReportInterval
	}
	if o.MinReports == 0 {
		o.MinReports = ledger.DefaultMinReports
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.Epoch.IsZero() {
		o.Epoch = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)
	}
	if o.Region.IsZero() {
		o.Region = geo.NewRegion(geo.Point{Lng: 114.175, Lat: 22.300}, geo.Point{Lng: 114.185, Lat: 22.310})
	}
	if o.GenesisEndorsers > 0 && o.GenesisEndorsers < o.MinEndorsers {
		return fmt.Errorf("gpbft: GenesisEndorsers %d below MinEndorsers %d", o.GenesisEndorsers, o.MinEndorsers)
	}
	return nil
}

// network builds the simulator the options describe.
func (o *Options) network() *simnet.Network {
	return simnet.New(simnet.Config{
		Seed: o.Seed,
		Latency: simnet.UniformLatency{
			Base:        o.Network.LatencyBase,
			Jitter:      o.Network.LatencyJitter,
			BytesPerSec: o.Network.BytesPerSec,
		},
		ProcTime: o.Network.ProcTime,
		SendTime: o.Network.SendTime,
		DropRate: o.Network.DropRate,
	})
}

// committeeSize returns the size of the initial consensus group.
func (o *Options) committeeSize() int {
	if o.Protocol == PBFT {
		return o.Nodes
	}
	size := o.MaxEndorsers
	if o.GenesisEndorsers > 0 && o.GenesisEndorsers < size {
		size = o.GenesisEndorsers
	}
	if o.Nodes < size {
		size = o.Nodes
	}
	return size
}

// policy assembles the genesis admittance policy.
func (o *Options) policy() ledger.AdmittancePolicy {
	return ledger.AdmittancePolicy{
		MinEndorsers:        o.MinEndorsers,
		MaxEndorsers:        o.maxForProtocol(),
		Region:              o.Region,
		QualificationWindow: o.QualificationWindow,
		MinReports:          o.MinReports,
		Eras:                o.eraRule(),
		EraPeriod:           o.EraPeriod,
		SwitchPeriod:        o.SwitchPeriod,
		ReportInterval:      o.ReportInterval,
		MinWitnesses:        o.MinWitnesses,
		WitnessRangeMeters:  o.WitnessRangeMeters,
		EndorserEndowment:   o.EndorserEndowment,
	}
}

// eraRule: classic PBFT is one era that never ends.
func (o *Options) eraRule() ledger.EraRule {
	switch {
	case o.DisableEraSwitch || o.Protocol == PBFT:
		return ledger.ErasFrozen
	case o.ForceEraSwitch:
		return ledger.ErasForced
	}
	return ledger.ErasElect
}

// maxForProtocol: under baseline PBFT every node is a consensus member,
// so the policy cap must admit all of them.
func (o *Options) maxForProtocol() int {
	if o.Protocol == PBFT && o.Nodes > o.MaxEndorsers {
		return o.Nodes
	}
	return o.MaxEndorsers
}
