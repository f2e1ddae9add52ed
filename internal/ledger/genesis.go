// Package ledger implements the blockchain substrate underneath both
// consensus protocols: the genesis configuration with its admittance
// policies (paper Section III-C), the append-only chain with fork
// detection, the election table of Section III-B3 (paper Table II)
// including the chain query G(v,t) used by Algorithm 1, and the 70/30
// fee reward accounting of the incentive mechanism (Section III-B5).
package ledger

import (
	"errors"
	"fmt"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/types"
)

// Default policy values drawn from the paper's experiment setup
// (Section V-A) and protocol description.
const (
	// DefaultMinEndorsers: "the minimal ... value stated in Section
	// III-C is set as 4".
	DefaultMinEndorsers = 4
	// DefaultMaxEndorsers: "...and maximal values ... 40".
	DefaultMaxEndorsers = 40
	// DefaultQualificationWindow: "An IoT device stays at the same
	// location (has the same CSC) for 72 hours will be elected as an
	// endorser" (Section III-B3).
	DefaultQualificationWindow = 72 * time.Hour
	// DefaultMinReports is the threshold n of Algorithm 1: the minimum
	// number of geographic reports a node must have filed during the
	// authentication lookback to stay qualified.
	DefaultMinReports = 3
	// DefaultEraPeriod is T, the interval between era switches.
	DefaultEraPeriod = 10 * time.Second
	// DefaultSwitchPeriod is the consensus pause during an era switch;
	// the paper measures "about 0.25 second" (Section V-B).
	DefaultSwitchPeriod = 250 * time.Millisecond
	// DefaultReportInterval is how often devices upload their location.
	DefaultReportInterval = time.Second
	// DefaultSybilWindow is how close in time two same-cell reports
	// from distinct identities must be to count as the simultaneous
	// occupancy Section IV-A1 forbids ("different nodes cannot report
	// the same geographic information at the same time"): two report
	// intervals, so one device genuinely replacing another at a
	// location is not misread as a Sybil pair.
	DefaultSybilWindow = 2 * DefaultReportInterval
)

// EraRule says what the chain does when an era's time is up. It is a
// genesis value because it decides block validity: two replicas that
// disagreed on it would disagree on the committee.
type EraRule uint8

const (
	// ErasFrozen keeps the genesis committee forever: one era that never
	// ends, which with address-order rotation is classic PBFT.
	ErasFrozen EraRule = iota
	// ErasElect runs Algorithm 1 every EraPeriod and switches when its
	// result changes the committee.
	ErasElect
	// ErasForced switches every EraPeriod even when Algorithm 1 changes
	// nothing: the paper's literal schedule ("Era switch will be made
	// every T seconds in our system"), which produces the switch-period
	// latency outliers of Figure 3b.
	ErasForced
)

// AdmittancePolicy is the genesis-block policy set of Section III-C:
// "the genesis block contains extra admittance policies, such as
// blacklist, whitelist, minimum number, and maximum number of
// endorsers."
type AdmittancePolicy struct {
	// Blacklist: "Nodes in the blacklist will be forbidden to join the
	// consensus committee."
	Blacklist []gcrypto.Address
	// Whitelist: "Nodes in the whitelist can be identified as endorsers
	// directly without any qualifications."
	Whitelist []gcrypto.Address
	// MinEndorsers: below this the system stops committing transactions.
	MinEndorsers int
	// MaxEndorsers: at this size endorser election is suspended.
	MaxEndorsers int
	// Region bounds the deployment area; reports outside it are
	// rejected by geographic authentication. Zero means unconstrained.
	Region geo.Region
	// QualificationWindow is how long a candidate must hold one CSC.
	QualificationWindow time.Duration
	// MinReports is Algorithm 1's threshold n.
	MinReports int
	// Eras is the era rule; the zero value freezes the committee.
	Eras EraRule
	// EraPeriod is Algorithm 1's / Section III-E's T.
	EraPeriod time.Duration
	// SwitchPeriod is the consensus pause for one era switch.
	SwitchPeriod time.Duration
	// ReportInterval is the expected device location-upload period.
	ReportInterval time.Duration
	// MinWitnesses, when positive, requires a candidate's claimed cell
	// to be confirmed by at least this many distinct endorser witness
	// statements within the qualification window (the supervision
	// mechanism of the paper's threat model). Zero disables witnessing.
	MinWitnesses int
	// WitnessRangeMeters bounds how far a credible witness may be from
	// the cell it attests about; zero means any distance.
	WitnessRangeMeters float64
	// SybilWindow, when positive, turns two committed reports from
	// distinct identities in one CSC cell within the window into
	// SybilSameCell evidence (and makes such evidence records valid in
	// blocks). Zero disables Sybil evidence entirely.
	SybilWindow time.Duration
	// DisableExpulsion keeps committed evidence out of committee
	// decisions: offenders stay blacklisted on paper but are neither
	// expelled nor refused readmission. It is the ablation knob for
	// measuring accountability, genesis-level so that every replica
	// agrees on committee composition.
	DisableExpulsion bool
	// EndorserEndowment credits every genesis endorser this balance at
	// chain initialisation. Cross-region transfer locks debit the
	// sender (value is conserved across regions, never minted by a
	// transfer), so sharded deployments fund committee members up
	// front; zero keeps the historical empty reward ledger.
	EndorserEndowment uint64
}

// DefaultPolicy returns the paper's experiment policy.
func DefaultPolicy() AdmittancePolicy {
	return AdmittancePolicy{
		MinEndorsers:        DefaultMinEndorsers,
		MaxEndorsers:        DefaultMaxEndorsers,
		QualificationWindow: DefaultQualificationWindow,
		MinReports:          DefaultMinReports,
		EraPeriod:           DefaultEraPeriod,
		SwitchPeriod:        DefaultSwitchPeriod,
		ReportInterval:      DefaultReportInterval,
		SybilWindow:         DefaultSybilWindow,
	}
}

// Blacklisted reports whether addr is forbidden from the committee.
func (p *AdmittancePolicy) Blacklisted(addr gcrypto.Address) bool {
	for _, a := range p.Blacklist {
		if a == addr {
			return true
		}
	}
	return false
}

// Whitelisted reports whether addr bypasses qualification.
func (p *AdmittancePolicy) Whitelisted(addr gcrypto.Address) bool {
	for _, a := range p.Whitelist {
		if a == addr {
			return true
		}
	}
	return false
}

// InRegion reports whether a point is inside the deployment region
// (always true when no region is configured).
func (p *AdmittancePolicy) InRegion(pt geo.Point) bool {
	if p.Region.IsZero() {
		return true
	}
	return p.Region.Contains(pt)
}

// Validate checks internal consistency.
func (p *AdmittancePolicy) Validate() error {
	if p.MinEndorsers < 4 {
		return fmt.Errorf("ledger: MinEndorsers %d < 4 (PBFT needs 3f+1 with f>=1)", p.MinEndorsers)
	}
	if p.MaxEndorsers < p.MinEndorsers {
		return fmt.Errorf("ledger: MaxEndorsers %d < MinEndorsers %d", p.MaxEndorsers, p.MinEndorsers)
	}
	if p.QualificationWindow <= 0 {
		return errors.New("ledger: QualificationWindow must be positive")
	}
	if p.MinReports < 1 {
		return errors.New("ledger: MinReports must be at least 1")
	}
	if p.EraPeriod <= 0 {
		return errors.New("ledger: EraPeriod must be positive")
	}
	if p.SwitchPeriod < 0 {
		return errors.New("ledger: SwitchPeriod must be non-negative")
	}
	if p.Eras > ErasForced {
		return fmt.Errorf("ledger: unknown era rule %d", p.Eras)
	}
	return nil
}

// Genesis is the chain's founding configuration: the core-node endorser
// set and the admittance policies, both "contained in the genesis
// block" (Section III-C).
type Genesis struct {
	ChainID   string
	Timestamp time.Time
	// Endorsers are the core nodes appointed at system initiation.
	Endorsers []types.EndorserInfo
	Policy    AdmittancePolicy
}

// Validate checks the genesis configuration.
func (g *Genesis) Validate() error {
	if g.ChainID == "" {
		return errors.New("ledger: genesis needs a chain ID")
	}
	if err := g.Policy.Validate(); err != nil {
		return err
	}
	if len(g.Endorsers) < g.Policy.MinEndorsers {
		return fmt.Errorf("ledger: genesis has %d endorsers, policy minimum is %d",
			len(g.Endorsers), g.Policy.MinEndorsers)
	}
	if len(g.Endorsers) > g.Policy.MaxEndorsers {
		return fmt.Errorf("ledger: genesis has %d endorsers, policy maximum is %d",
			len(g.Endorsers), g.Policy.MaxEndorsers)
	}
	seen := make(map[gcrypto.Address]bool, len(g.Endorsers))
	for _, e := range g.Endorsers {
		if e.Address.IsZero() {
			return errors.New("ledger: genesis endorser with zero address")
		}
		if seen[e.Address] {
			return fmt.Errorf("ledger: duplicate genesis endorser %s", e.Address.Short())
		}
		seen[e.Address] = true
		if g.Policy.Blacklisted(e.Address) {
			return fmt.Errorf("ledger: genesis endorser %s is blacklisted", e.Address.Short())
		}
	}
	return nil
}

// MarshalCanonical appends the canonical genesis encoding, which the
// genesis block commits to via its TxRoot field.
func (g *Genesis) MarshalCanonical(w *codec.Writer) {
	w.String("gpbft/genesis/v1")
	w.String(g.ChainID)
	w.Time(g.Timestamp)
	c, p := w.Coder(), &g.Policy
	codec.List(c, &g.Endorsers, types.MinEndorserInfoSize, (*types.EndorserInfo).Canonical)
	codec.List(c, &p.Blacklist, gcrypto.AddressSize, (*gcrypto.Address).Canonical)
	codec.List(c, &p.Whitelist, gcrypto.AddressSize, (*gcrypto.Address).Canonical)
	w.Uint32(uint32(p.MinEndorsers))
	w.Uint32(uint32(p.MaxEndorsers))
	w.Float64(p.Region.MinLng)
	w.Float64(p.Region.MinLat)
	w.Float64(p.Region.MaxLng)
	w.Float64(p.Region.MaxLat)
	w.Int64(int64(p.QualificationWindow))
	w.Uint32(uint32(p.MinReports))
	w.Int64(int64(p.EraPeriod))
	w.Int64(int64(p.SwitchPeriod))
	w.Int64(int64(p.ReportInterval))
	w.Uint32(uint32(p.MinWitnesses))
	w.Float64(p.WitnessRangeMeters)
	w.Int64(int64(p.SybilWindow))
	w.Bool(p.DisableExpulsion)
	w.Uint64(p.EndorserEndowment)
	// The era rule comes last and only when it is not the zero value: a
	// frozen chain's genesis hashes without it, so block logs of frozen
	// deployments written by earlier builds still replay.
	if p.Eras != ErasFrozen {
		w.Uint8(uint8(p.Eras))
	}
}

// Hash returns the digest of the canonical genesis encoding.
func (g *Genesis) Hash() gcrypto.Hash {
	return gcrypto.HashBytes(codec.Encode(g))
}

// Block synthesizes the genesis block: height 0, zero parent, and a
// TxRoot equal to the genesis configuration hash so every node agrees
// on the founding state.
func (g *Genesis) Block() *types.Block {
	return &types.Block{
		Header: types.BlockHeader{
			Height:    0,
			Era:       0,
			TxRoot:    g.Hash(),
			Timestamp: g.Timestamp,
		},
	}
}

// EndorserAddresses returns the genesis committee as addresses, in the
// given order.
func (g *Genesis) EndorserAddresses() []gcrypto.Address {
	out := make([]gcrypto.Address, len(g.Endorsers))
	for i, e := range g.Endorsers {
		out[i] = e.Address
	}
	return out
}
