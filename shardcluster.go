package gpbft

import (
	"errors"
	"fmt"
	"math"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/runtime"
	"gpbft/internal/shard"
	"gpbft/internal/simnet"
	"gpbft/internal/types"
)

// DefaultAnchorPeriod is the region-checkpoint emission interval when
// Options.AnchorPeriod is zero.
const DefaultAnchorPeriod = 500 * time.Millisecond

// anchorKeyBase keeps anchor-committee identities far away from any
// region node's deterministic key index.
const anchorKeyBase = 9_000_000

// regionKeyStride spaces each region's key indices so no two regions
// share a simnet address.
const regionKeyStride = 100_000

// DefaultEndorserEndowment funds each region committee member at
// genesis when Options.EndorserEndowment is zero. Transfer locks debit
// the sender — cross-region value is conserved, never minted — so
// sharded runs need senders holding more than fee dust.
const DefaultEndorserEndowment = 1 << 20

// ShardCluster is a geo-sharded hierarchical deployment: one full
// consensus instance (committee, mempool, chain) per geohash-prefix
// region, all sharing a single discrete-event simulator, plus a
// top-level anchor committee running plain PBFT over region-checkpoint
// transactions. Regions commit independently and in parallel;
// cross-region transfers take the receipt-based two-phase path — lock
// in the source region, apply in the destination only after the anchor
// has committed the source checkpoint covering the receipt.
//
// Each anchor-committee member is a delegate of one region, physically
// deployed inside it: isolating a region cuts its delegates off from
// the rest of the anchor committee too, and all of the harness's chain
// reads are delegate-local so nothing peeks across a partition.
type ShardCluster struct {
	opts     Options
	net      *simnet.Network
	metrics  *Metrics
	router   *shard.Router
	prefixes []string
	regions  []*Cluster
	anchor   *Cluster

	crashedAnchor map[int]bool // anchor member index -> crashed
	isolated      map[int]bool // region index -> isolated

	// applySubmitted tracks when each anchored receipt was last handed
	// to its destination region, so lost submissions (a partition) are
	// retried instead of spammed every tick.
	applySubmitted map[gcrypto.Hash]consensus.Time
	transfers      int
}

// NewShardCluster builds and starts a geo-sharded deployment.
// Options.Nodes is the per-region node count; Options.ShardRegions the
// region count (1..shard.MaxRegions; 1 reproduces a single-region
// cluster plus its anchor committee); Options.Region seeds the
// partition (its center cell plus geohash neighbours).
func NewShardCluster(opts Options) (*ShardCluster, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := opts.ShardRegions
	if r == 0 {
		r = 1
	}
	if r < 1 || r > shard.MaxRegions {
		return nil, fmt.Errorf("gpbft: ShardRegions %d out of range [1, %d]", r, shard.MaxRegions)
	}
	prefixes, err := shard.Partition(opts.Region, shard.DefaultPrefixLen, r)
	if err != nil {
		return nil, err
	}
	if opts.EndorserEndowment == 0 {
		opts.EndorserEndowment = DefaultEndorserEndowment
	}
	router, err := shard.NewRouter(prefixes)
	if err != nil {
		return nil, err
	}

	s := &ShardCluster{
		opts:           opts,
		metrics:        NewMetrics(),
		router:         router,
		prefixes:       prefixes,
		crashedAnchor:  make(map[int]bool),
		isolated:       make(map[int]bool),
		applySubmitted: make(map[gcrypto.Hash]consensus.Time),
	}
	s.net = opts.network()

	// One full consensus instance per region, sharing the event loop
	// and the latency recorder.
	s.regions = make([]*Cluster, r)
	for i := 0; i < r; i++ {
		ropts := opts
		ropts.ShardRegions = 0
		region, err := shard.RegionOf(prefixes[i])
		if err != nil {
			return nil, err
		}
		ropts.Region = region
		cl, err := newClusterOn(ropts, clusterSite{
			net:         s.net,
			metrics:     s.metrics,
			chainID:     fmt.Sprintf("gpbft-sim-%d-r-%s", opts.Seed, prefixes[i]),
			keyBase:     i * regionKeyStride,
			shardPrefix: prefixes[i],
		})
		if err != nil {
			return nil, err
		}
		s.regions[i] = cl
	}

	// The anchor committee: classic PBFT over at least 4 members (PBFT
	// liveness), spread round-robin over the regions so each region has
	// at least one delegate, deployed inside its home region. It runs
	// without adaptive block sizing.
	bound, err := shard.Bound(prefixes)
	if err != nil {
		return nil, err
	}
	aopts := opts
	aopts.Protocol, aopts.Nodes, aopts.Region = PBFT, max(r, 4), bound
	aopts.RateLimit, aopts.Gossip, aopts.Snapshots, aopts.Byzantine = 0, false, false, nil
	delegates := make([]geo.Point, aopts.Nodes)
	for j := range delegates {
		// Delegate j of region j%r lives inside its home region.
		home, err := shard.RegionOf(prefixes[j%r])
		if err != nil {
			return nil, err
		}
		delegates[j] = home.Grid(aopts.Nodes/r + 2)[j/r]
	}
	s.anchor, err = newClusterOn(aopts, clusterSite{
		net:        s.net,
		chainID:    fmt.Sprintf("gpbft-sim-%d-anchor", opts.Seed),
		keyBase:    anchorKeyBase,
		positions:  delegates,
		fixedBatch: true,
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// --- accessors ---

// Net exposes the shared simulator.
func (s *ShardCluster) Net() *simnet.Network { return s.net }

// Metrics returns the shared (cross-region) latency recorder.
func (s *ShardCluster) Metrics() *Metrics { return s.metrics }

// Regions returns the number of geo shards.
func (s *ShardCluster) Regions() int { return len(s.regions) }

// Region returns the consensus cluster of region i.
func (s *ShardCluster) Region(i int) *Cluster { return s.regions[i] }

// Prefix returns region i's geohash prefix (its shard key).
func (s *ShardCluster) Prefix(i int) string { return s.prefixes[i] }

// AnchorSize returns the anchor-committee size.
func (s *ShardCluster) AnchorSize() int { return s.anchor.NodeCount() }

// AnchorNode returns anchor member j's runtime node.
func (s *ShardCluster) AnchorNode(j int) *runtime.Node { return s.anchor.Node(j) }

// DelegateOf returns the anchor member indices representing region i.
func (s *ShardCluster) DelegateOf(i int) []int {
	var out []int
	for j := range s.anchor.NodeCount() {
		if j%len(s.regions) == i {
			out = append(out, j)
		}
	}
	return out
}

// anchorPeriod resolves the checkpoint pump interval.
func (s *ShardCluster) anchorPeriod() time.Duration {
	if s.opts.AnchorPeriod > 0 {
		return s.opts.AnchorPeriod
	}
	return DefaultAnchorPeriod
}

// --- driving the simulation ---

// RunUntilIdle processes events until quiescence or the cap.
func (s *ShardCluster) RunUntilIdle(cap time.Duration) { s.net.RunUntilIdle(cap) }

// StartAnchors schedules the hierarchical pump: every AnchorPeriod up
// to `until`, live delegates emit region checkpoints to the anchor
// committee and destination regions apply newly anchored transfer
// receipts. Call it once, before Run/RunUntilIdle.
func (s *ShardCluster) StartAnchors(until time.Duration) {
	period := s.anchorPeriod()
	for at := period; at <= until; at += period {
		s.net.Schedule(at, s.anchorTick)
	}
}

// liveDelegate returns the first non-crashed anchor member representing
// region i, or -1.
func (s *ShardCluster) liveDelegate(i int) int {
	for _, j := range s.DelegateOf(i) {
		if !s.crashedAnchor[j] {
			return j
		}
	}
	return -1
}

// endorserNode returns the first node of region i whose
// identity the region chain currently admits as an endorser, or -1.
// Receipt applies must come from endorsers, so the pump submits them
// through a committee member.
func (s *ShardCluster) endorserNode(i int) int {
	cl := s.regions[i]
	for k := 0; k < cl.NodeCount(); k++ {
		if cl.Node(k).App.Chain().IsEndorser(cl.Address(k)) {
			return k
		}
	}
	return -1
}

// anchorTick is one pump round. All chain reads are delegate-local:
// a region's checkpoint is built by its own delegate from its own
// region's chain, and a destination region discovers anchored receipts
// through its own delegate's replica of the anchor chain — a partition
// that cuts a region off therefore stalls exactly that region's
// checkpoints and applies, nothing else.
func (s *ShardCluster) anchorTick(now consensus.Time) {
	for i := range s.regions {
		j := s.liveDelegate(i)
		if j < 0 {
			continue
		}
		s.emitCheckpoint(now, i, j)
		s.applyAnchored(now, i, j)
	}
}

// emitCheckpoint has delegate j attest region i's current head to the
// anchor committee, carrying every outbound receipt not yet covered by
// the last checkpoint the delegate has seen anchored.
func (s *ShardCluster) emitCheckpoint(now consensus.Time, i, j int) {
	chain := s.regions[i].Node(0).App.Chain()
	head := chain.Head()
	if head.Header.Height == 0 {
		return
	}
	var since uint64
	if pt, ok := s.anchor.Node(j).App.Chain().AnchorLatest(s.prefixes[i]); ok {
		if pt.Height >= head.Header.Height {
			return // already anchored up to (or past) the head the delegate sees
		}
		since = pt.Height
	}
	// Keep only receipts sourced in this region. The chain already
	// refuses foreign-source locks, so this is defense in depth: a
	// single foreign receipt would make RegionCheckpoint.Validate
	// reject every future checkpoint and stall the region's transfers.
	receipts := chain.OutboundReceipts(since)
	kept := receipts[:0]
	for _, rc := range receipts {
		if rc.Source == s.prefixes[i] {
			kept = append(kept, rc)
		}
	}
	cp := &shard.RegionCheckpoint{
		Region:   s.prefixes[i],
		Era:      head.Header.Era,
		Height:   head.Header.Height,
		Root:     head.Hash(),
		Receipts: kept,
	}
	tx := s.anchor.NewTypedNodeTx(j, time.Duration(now), types.TxRegionCheckpoint, shard.EncodeCheckpoint(cp), 1)
	_ = s.anchor.Node(j).Submit(now, tx)
}

// applyAnchored walks the receipts delegate j's anchor replica has
// committed and hands every one destined for region i that is not yet
// applied there to a region endorser. Submissions are retried after a
// few quiet periods — an in-flight partition must lose no receipt — and application itself is idempotent per
// receipt ID, so a retry that races a slow commit is a counted no-op.
func (s *ShardCluster) applyAnchored(now consensus.Time, i, j int) {
	k := s.endorserNode(i)
	if k < 0 {
		return
	}
	dest := s.regions[i]
	chain := dest.Node(k).App.Chain()
	retryAfter := 4 * consensus.Time(s.anchorPeriod())
	for _, rc := range s.anchor.Node(j).App.Chain().AnchorReceipts() {
		if rc.Dest != s.prefixes[i] {
			continue
		}
		if _, done := chain.ReceiptApplied(rc.ID); done {
			continue
		}
		if at, pending := s.applySubmitted[rc.ID]; pending && now-at < retryAfter {
			continue
		}
		tx := dest.NewTypedNodeTx(k, time.Duration(now), types.TxTransferApply, shard.EncodeReceipt(&rc), 1)
		if err := dest.Node(k).Submit(now, tx); err == nil {
			s.applySubmitted[rc.ID] = now
		}
	}
}

// --- workload ---

// RegionFor routes a point to its region index.
func (s *ShardCluster) RegionFor(p geo.Point) (int, bool) { return s.router.Route(p) }

// SubmitNodeTx schedules a data transaction from node `node` of region
// `region` at virtual time `at`, starting the shared latency clock.
func (s *ShardCluster) SubmitNodeTx(at time.Duration, region, node int, payload []byte, fee uint64) *types.Transaction {
	return s.regions[region].SubmitNodeTx(at, node, payload, fee)
}

// SubmitTransfer schedules a cross-region transfer: node `via` of the
// source region locks `amount` for `recipient` in the destination
// region. The credit lands only after the anchor has committed a
// source checkpoint covering the minted receipt and the destination
// has applied it.
func (s *ShardCluster) SubmitTransfer(at time.Duration, source, via, dest int, recipient gcrypto.Address, amount uint64) (*types.Transaction, error) {
	if source == dest {
		return nil, errors.New("gpbft: transfer source and destination regions must differ")
	}
	payload := shard.EncodeTransfer(&shard.Transfer{
		Source:    s.prefixes[source],
		Dest:      s.prefixes[dest],
		Recipient: recipient,
		Amount:    amount,
	})
	cl := s.regions[source]
	tx := cl.NewTypedNodeTx(via, at, types.TxTransferLock, payload, 1)
	cl.SubmitTx(at, via, tx)
	s.transfers++
	return tx, nil
}

// TransfersSubmitted returns how many cross-region transfers were
// injected through SubmitTransfer.
func (s *ShardCluster) TransfersSubmitted() int { return s.transfers }

// TransfersApplied counts receipts applied across all destination
// regions, read from each region's first node.
func (s *ShardCluster) TransfersApplied() int {
	total := 0
	for i := range s.regions {
		total += s.regions[i].Node(0).App.Chain().AppliedReceiptCount()
	}
	return total
}

// --- fault injection ---

// CrashDelegate fail-stops anchor member j.
func (s *ShardCluster) CrashDelegate(j int) {
	s.crashedAnchor[j] = true
	s.net.Crash(s.anchor.Address(j))
}

// RecoverDelegate brings a crashed anchor member back, memory intact.
func (s *ShardCluster) RecoverDelegate(j int) {
	delete(s.crashedAnchor, j)
	s.net.Recover(s.anchor.Address(j))
}

// regionAddrs returns every simnet address physically inside region i:
// its consensus nodes and its anchor delegates.
func (s *ShardCluster) regionAddrs(i int) []gcrypto.Address {
	var out []gcrypto.Address
	for k := 0; k < s.regions[i].NodeCount(); k++ {
		out = append(out, s.regions[i].Address(k))
	}
	for _, j := range s.DelegateOf(i) {
		out = append(out, s.anchor.Address(j))
	}
	return out
}

// allAddrs returns every simnet address in the deployment.
func (s *ShardCluster) allAddrs() []gcrypto.Address {
	var out []gcrypto.Address
	for i := range s.regions {
		for k := 0; k < s.regions[i].NodeCount(); k++ {
			out = append(out, s.regions[i].Address(k))
		}
	}
	for j := range s.anchor.NodeCount() {
		out = append(out, s.anchor.Address(j))
	}
	return out
}

// IsolateRegion partitions region i — its consensus nodes AND its
// anchor delegates, which live inside it — from the rest of the world.
// Intra-region consensus keeps committing; checkpoints and transfers
// involving the region stall until HealRegion.
func (s *ShardCluster) IsolateRegion(i int) {
	inside := make(map[gcrypto.Address]bool)
	for _, a := range s.regionAddrs(i) {
		inside[a] = true
	}
	for _, a := range s.regionAddrs(i) {
		for _, b := range s.allAddrs() {
			if !inside[b] {
				s.net.Partition(a, b)
			}
		}
	}
	s.isolated[i] = true
}

// HealRegion removes an IsolateRegion partition.
func (s *ShardCluster) HealRegion(i int) {
	for _, a := range s.regionAddrs(i) {
		for _, b := range s.allAddrs() {
			s.net.Heal(a, b)
		}
	}
	delete(s.isolated, i)
}

// --- invariants ---

// VerifyAgreement checks safety across the whole hierarchy: every
// region's nodes agree on their shared heights, the anchor replicas
// agree on theirs, and every anchored region root matches the block
// actually committed at that height in that region. It returns the
// minimum committed height across regions.
func (s *ShardCluster) VerifyAgreement() (uint64, error) {
	minH := uint64(math.MaxUint64)
	for i, cl := range s.regions {
		h, err := cl.VerifyAgreement()
		if err != nil {
			return 0, fmt.Errorf("region %d (%s): %w", i, s.prefixes[i], err)
		}
		if h < minH {
			minH = h
		}
	}
	if _, err := s.anchor.VerifyAgreement(); err != nil {
		return 0, fmt.Errorf("anchor committee: %w", err)
	}
	ref := s.anchor.Node(0).App.Chain()
	// Anchored roots match the regions' actual history.
	for i, cl := range s.regions {
		pt, ok := ref.AnchorLatest(s.prefixes[i])
		if !ok {
			continue
		}
		b, err := cl.Node(0).App.Chain().BlockAt(pt.Height)
		if err != nil {
			continue // compacted away; covered by per-region agreement
		}
		if b.Hash() != pt.Root {
			return 0, fmt.Errorf("anchor root for region %d (%s) at height %d does not match the region's chain", i, s.prefixes[i], pt.Height)
		}
	}
	return minH, nil
}

// MaxHeight returns the highest committed height across all regions.
func (s *ShardCluster) MaxHeight() uint64 {
	var max uint64
	for _, cl := range s.regions {
		if h := cl.MaxHeight(); h > max {
			max = h
		}
	}
	return max
}

// AnchorHeight returns the highest committed height across anchor
// replicas.
func (s *ShardCluster) AnchorHeight() uint64 { return s.anchor.MaxHeight() }
