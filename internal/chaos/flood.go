package chaos

import (
	"fmt"
	"sort"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
	"gpbft/internal/workload"
)

// FloodReport summarises an attack-traffic schedule: honest service
// quality before and during the flood, what the attackers offered and
// landed, and how much traffic the armor turned away.
type FloodReport struct {
	// BaselineP50 is the honest commit-latency median (virtual time)
	// with no attackers; FloodP50 is the same measurement while the
	// attackers flood. The core claim under test: FloodP50 stays within
	// a small multiple of BaselineP50.
	BaselineP50 time.Duration
	FloodP50    time.Duration

	HonestSubmitted   int
	HonestCommitted   int
	HonestRejected    int
	AttackerOffered   int
	AttackerCommitted int

	// Summed over nodes: token-bucket rejections, shed-controller
	// rejections, and QoS evictions of the heaviest identity.
	RejectedRate uint64
	Shed         uint64
	Evicted      uint64
	// MaxShedLevel is the highest degradation level any node reached
	// during the flood phase.
	MaxShedLevel int
}

// RunFloodSchedule drives the overload-armor property: `steps` of
// honest-only traffic establish a latency baseline, then the same
// honest load continues while `attackers` spammer devices (external
// identities, honest about location) each offer spamFactor× the honest
// per-identity rate through the committee. Invariants are checked
// every step; the caller asserts the report's latency and shedding
// properties. Requires Options.RateLimit > 0.
func (c *Cluster) RunFloodSchedule(attackers, spamFactor, steps int) (*FloodReport, error) {
	if c.opts.RateLimit <= 0 {
		return nil, fmt.Errorf("chaos: flood schedule needs RateLimit > 0")
	}
	if attackers < 1 || spamFactor < 1 || steps < 1 {
		return nil, fmt.Errorf("chaos: flood schedule needs attackers, spamFactor, steps >= 1")
	}
	rep := &FloodReport{}

	// Attackers are spammer devices from the workload model: dedicated
	// external identities (seeds far above committee and population
	// ranges) sitting at committee positions so their traffic is
	// geographically plausible — they attack with volume, not lies.
	devs := make([]*workload.Device, attackers)
	attackerIDs := make(map[gcrypto.Address]bool, attackers)
	for k := range devs {
		d := workload.NewDevice(fmt.Sprintf("flood-%d", k), workload.Spammer,
			30000+k, c.positions[k%len(c.positions)], c.rng)
		d.SpamFactor = spamFactor
		devs[k] = d
		attackerIDs[d.Address()] = true
	}

	// Node 0 observes commit latency: the flood schedule never crashes
	// nodes, so its OnCommit observer survives the whole run. Honest
	// latency is measured per transaction in virtual time from its one
	// submission to the observer's commit — the client-perceived latency.
	pending := make(map[gcrypto.Hash]consensus.Time) // tx ID -> submit time
	var honestLat []time.Duration
	obs := c.nodes[0]
	obs.OnCommit = func(now consensus.Time, b *types.Block) {
		for i := range b.Txs {
			tx := &b.Txs[i]
			if attackerIDs[tx.Sender] {
				rep.AttackerCommitted++
				continue
			}
			if submitted, ok := pending[tx.ID()]; ok {
				honestLat = append(honestLat, time.Duration(now-submitted))
				delete(pending, tx.ID())
				rep.HonestCommitted++
			}
		}
	}
	defer func() { obs.OnCommit = nil }()

	// One honest data transaction per committee node per step — the
	// per-identity honest rate the attackers are measured against.
	honestTx := func(i, step int) {
		c.nonces[i]++
		tx := &types.Transaction{
			Type:    types.TxNormal,
			Nonce:   c.nonces[i],
			Payload: []byte(fmt.Sprintf("honest-%d-%d", i, step)),
			Fee:     1,
			Geo: types.GeoInfo{
				Location:  c.positions[i],
				Timestamp: c.epoch.Add(c.net.Now()),
			},
		}
		tx.Sign(c.keys[i])
		rep.HonestSubmitted++
		if err := c.nodes[i].Submit(c.net.Now(), tx); err != nil {
			rep.HonestRejected++
			return
		}
		pending[tx.ID()] = c.net.Now()
	}

	// drain lets in-flight work finish. Every honest transaction is
	// submitted once, through one endorser: a request that reaches its
	// entry node mid view-change or era switch is held there and relayed
	// when the node can, so the client has nothing to retry.
	drain := func() { c.RunUntilIdleFor(15 * time.Second) }

	// Phase 1: unloaded baseline.
	for s := 0; s < steps; s++ {
		for i := range c.nodes {
			honestTx(i, s)
		}
		c.RunFor(stepInterval)
		if err := c.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("baseline step %d: %w", s, err)
		}
	}
	drain()
	if err := c.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("baseline drain: %w", err)
	}
	rep.BaselineP50 = quantile(honestLat, 0.5)
	baselineSamples := len(honestLat)
	if baselineSamples == 0 {
		return nil, fmt.Errorf("chaos: baseline phase committed no honest transactions")
	}
	honestLat = honestLat[:0]

	// Phase 2: same honest load, attackers on. Each attacker keeps one
	// entry node for its whole flood (a device holds one connection),
	// so that node's per-identity bucket sees the full offered rate.
	for s := 0; s < steps; s++ {
		for i := range c.nodes {
			honestTx(i, steps+s)
		}
		for k, d := range devs {
			for t := d.TxPerStep(); t > 0; t-- {
				tx := d.DataTx(c.epoch.Add(c.net.Now()), []byte("flood"), 1)
				rep.AttackerOffered++
				c.SubmitRawTx(k%len(c.nodes), tx)
			}
		}
		c.RunFor(stepInterval)
		for i := range c.nodes {
			if lvl := c.nodes[i].Admission.Level(); lvl > rep.MaxShedLevel {
				rep.MaxShedLevel = lvl
			}
		}
		if err := c.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("flood step %d: %w", s, err)
		}
	}
	drain()
	if err := c.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("flood drain: %w", err)
	}
	rep.FloodP50 = quantile(honestLat, 0.5)
	if len(honestLat) == 0 {
		return nil, fmt.Errorf("chaos: flood phase committed no honest transactions")
	}

	for i := range c.nodes {
		as := c.nodes[i].Admission.Stats()
		rep.RejectedRate += as.RejectedRate
		rep.Shed += as.Shed
		rep.Evicted += c.nodes[i].App.Pool().Stats().EvictedShed
	}
	return rep, nil
}

// quantile returns the q-quantile of the samples (0 for none).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
}
