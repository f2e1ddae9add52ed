package ledger

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/shard"
	"gpbft/internal/types"
)

// Errors returned by chain operations.
var (
	ErrBadGenesis     = errors.New("ledger: invalid genesis")
	ErrHeightGap      = errors.New("ledger: block height is not head+1")
	ErrPrevHash       = errors.New("ledger: block prev hash does not match head")
	ErrForkDetected   = errors.New("ledger: conflicting block at committed height")
	ErrDuplicateBlock = errors.New("ledger: block already committed")
	ErrTxInvalid      = errors.New("ledger: block contains invalid transaction")
	ErrConfigSender   = errors.New("ledger: region checkpoint from non-endorser")
	ErrApplySender    = errors.New("ledger: transfer apply from non-endorser")
	ErrUnknownHeight  = errors.New("ledger: no block at height")
	ErrEraRegressed   = errors.New("ledger: block era lower than head era")
	ErrTimeRegressed  = errors.New("ledger: block time earlier than its parent's")
)

// ForkEvidence records an attempted fork: a second, different block
// presented for an already-committed height. The paper expels endorsers
// that cause forks; this is the proof object.
type ForkEvidence struct {
	Height    uint64
	Committed gcrypto.Hash
	Conflict  gcrypto.Hash
	Proposer  gcrypto.Address
}

// Chain is the node-local blockchain: genesis, committed blocks, the
// election table derived from transaction geo info, and the reward
// ledger. All methods are safe for concurrent use.
type Chain struct {
	mu      sync.RWMutex
	genesis *Genesis
	blocks  []*types.Block
	// base is the height of blocks[0]. It is 0 (genesis) for a chain
	// built by replay, and the checkpoint height for a chain restored
	// from (or compacted below) a snapshot.
	base   uint64
	byHash map[gcrypto.Hash]*types.Block
	// endorsers is the current committee — genesis plus the result of
	// every era boundary that switched — in the era's rotation order,
	// fixed when the era began (rotateLocked).
	endorsers []types.EndorserInfo
	// era is the current G-PBFT era, advanced at era boundaries.
	era uint64
	// boundary is the header time at which the current era's time is up:
	// the first block stamped at or after it is the boundary block, where
	// Algorithm 1 runs (unused under ErasFrozen).
	boundary time.Time
	// accounts records the public key of every address that has sent a
	// committed transaction, so election can mint EndorserInfo for
	// candidates.
	accounts  map[gcrypto.Address][]byte
	forks     []ForkEvidence
	forkCount uint64

	table     *ElectionTable
	rewards   *RewardLedger
	witnesses *WitnessIndex
	txIndex   map[gcrypto.Hash]TxLocation

	// Cross-region state (see receipts.go): receipts minted by
	// committed transfer locks (commit order), the applied-receipt
	// index keyed by lock tx ID (destination-side exactly-once), the
	// count of harmless duplicate applies, the count of committed
	// locks refused for insufficient sender balance, and — on anchor
	// chains — the index derived from committed region checkpoints.
	// shardPrefix, when set, is the geohash prefix of the region this
	// chain serves; it is deployment configuration (every node of a
	// region is constructed with the same prefix), not chain content,
	// and pins transfer locks to Source == prefix and transfer applies
	// to Dest == prefix.
	shardPrefix     string
	outbound        []shard.Receipt
	appliedReceipts map[gcrypto.Hash]TxLocation
	receiptDupes    uint64
	lockRejects     uint64
	anchors         *shard.AnchorIndex

	// Accountability state (see accountability.go): the dynamic
	// blacklist from committed evidence, the committed-evidence dedup
	// set, chain-detected records awaiting submission, and the geo
	// indexes Sybil/spoof detection runs on. everEndorsers grows
	// monotonically so witness credibility can never be revoked.
	banned        map[gcrypto.Address]gcrypto.Hash
	evidenceSeen  map[gcrypto.Hash]bool
	evidenceCnt   uint64
	detected      []*evidence.Record
	detectedIDs   map[gcrypto.Hash]bool
	flagged       map[gcrypto.Address]bool
	lastGeo       map[gcrypto.Address]geoEntry
	cellSeen      map[string]map[gcrypto.Address]geoEntry
	everEndorsers map[gcrypto.Address]bool
	// names caches each address's hex form, the election table's key.
	names map[gcrypto.Address]string

	// onEraBump, when set, observes every era advance at the exact
	// block that commits it (see SetEraBumpHook).
	onEraBump func(*ChainState)
}

// NewChain initialises a chain from genesis.
func NewChain(g *Genesis) (*Chain, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadGenesis, err)
	}
	c := &Chain{
		genesis:       g,
		byHash:        make(map[gcrypto.Hash]*types.Block),
		accounts:      make(map[gcrypto.Address][]byte),
		table:         NewElectionTable(),
		rewards:       NewRewardLedger(),
		witnesses:     NewWitnessIndex(),
		txIndex:       make(map[gcrypto.Hash]TxLocation),
		banned:        make(map[gcrypto.Address]gcrypto.Hash),
		evidenceSeen:  make(map[gcrypto.Hash]bool),
		detectedIDs:   make(map[gcrypto.Hash]bool),
		flagged:       make(map[gcrypto.Address]bool),
		lastGeo:       make(map[gcrypto.Address]geoEntry),
		cellSeen:      make(map[string]map[gcrypto.Address]geoEntry),
		everEndorsers: make(map[gcrypto.Address]bool, len(g.Endorsers)),
		names:         make(map[gcrypto.Address]string),
		boundary:      g.Timestamp.Add(g.Policy.EraPeriod),

		appliedReceipts: make(map[gcrypto.Hash]TxLocation),
	}
	for _, e := range g.Endorsers {
		c.accounts[e.Address] = e.PubKey
	}
	gb := g.Block()
	c.blocks = append(c.blocks, gb)
	c.byHash[gb.Hash()] = gb
	for _, e := range g.Endorsers {
		c.endorsers = append(c.endorsers, e)
		c.everEndorsers[e.Address] = true
		if g.Policy.EndorserEndowment > 0 {
			c.rewards.Credit(e.Address, g.Policy.EndorserEndowment)
		}
	}
	// The table is empty, so the genesis era rotates in address order.
	c.rotateLocked()
	return c, nil
}

// Genesis returns the founding configuration.
func (c *Chain) Genesis() *Genesis { return c.genesis }

// Policy returns the admittance policy from genesis.
func (c *Chain) Policy() AdmittancePolicy { return c.genesis.Policy }

// Table returns the election table.
func (c *Chain) Table() *ElectionTable { return c.table }

// Rewards returns the reward ledger.
func (c *Chain) Rewards() *RewardLedger { return c.rewards }

// Witnesses returns the committed witness-statement index.
func (c *Chain) Witnesses() *WitnessIndex { return c.witnesses }

// Height returns the height of the head block.
func (c *Chain) Height() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1].Header.Height
}

// Head returns the newest committed block.
func (c *Chain) Head() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1]
}

// BlockAt returns the committed block at a height.
func (c *Chain) BlockAt(h uint64) (*types.Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if h < c.base || h-c.base >= uint64(len(c.blocks)) {
		return nil, ErrUnknownHeight
	}
	return c.blocks[h-c.base], nil
}

// ByHash returns a committed block by its hash.
func (c *Chain) ByHash(h gcrypto.Hash) (*types.Block, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, ok := c.byHash[h]
	return b, ok
}

// Era returns the current G-PBFT era: the number of era boundaries
// that switched the committee (0 at genesis).
func (c *Chain) Era() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.era
}

// Endorsers returns the current committee (genesis plus every switch's
// election result) in the era's rotation order: the order the chain
// fixed when the era began, which every node reads the same at any
// height of the era.
func (c *Chain) Endorsers() []types.EndorserInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]types.EndorserInfo(nil), c.endorsers...)
}

// IsEndorser reports whether addr is in the current committee.
func (c *Chain) IsEndorser(addr gcrypto.Address) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.endorserLocked(addr)
	return ok
}

// endorserLocked looks addr up in the current committee.
func (c *Chain) endorserLocked(addr gcrypto.Address) (types.EndorserInfo, bool) {
	for _, e := range c.endorsers {
		if e.Address == addr {
			return e, true
		}
	}
	return types.EndorserInfo{}, false
}

// Forks returns recorded fork evidence.
func (c *Chain) Forks() []ForkEvidence {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ForkEvidence, len(c.forks))
	copy(out, c.forks)
	return out
}

// ValidateBlock checks b as the child of the current head:
// ValidateBlockOn's head case.
func (c *Chain) ValidateBlock(b *types.Block) error { return c.ValidateBlockOn(b, nil) }

// ValidateBlockOn checks b as the immediate child of parent without
// committing: height continuity, parent linkage, time that never runs
// backwards, tx root, transaction signatures, region membership of every
// geo report, and the senders of endorser-only transactions. A nil
// parent names the head. When parent is the
// head, a block at or below it is refused as a duplicate or recorded
// against it as a fork; otherwise parent is a block still in flight
// (pipelined consensus), and only the link to it is checked.
func (c *Chain) ValidateBlockOn(b, parent *types.Block) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.validateLocked(b, parent)
}

func (c *Chain) validateLocked(b, parent *types.Block) error {
	if head := c.blocks[len(c.blocks)-1]; parent == nil || types.SameBlock(parent, head) {
		parent = head
		if existing, ok := c.byHash[b.Hash()]; ok && existing != nil {
			return ErrDuplicateBlock
		}
		if h := b.Header.Height; h <= head.Header.Height {
			if h < c.base {
				// Below the compaction checkpoint the committed block is
				// gone, so a conflict can no longer be adjudicated; the
				// height is committed either way, so the block is refused
				// as a duplicate and never applied.
				return ErrDuplicateBlock
			}
			if c.blocks[h-c.base].Hash() != b.Hash() {
				return ErrForkDetected
			}
			return ErrDuplicateBlock
		}
	}
	if b.Header.Height != parent.Header.Height+1 {
		return fmt.Errorf("%w: got %d, parent %d", ErrHeightGap, b.Header.Height, parent.Header.Height)
	}
	if b.Header.PrevHash != parent.Hash() {
		return ErrPrevHash
	}
	if b.Header.Era < parent.Header.Era {
		return ErrEraRegressed
	}
	// The era boundary and the proposer's geographic-timer reset both
	// read header time, so a block may not be stamped before its parent.
	if b.Header.Timestamp.Before(parent.Header.Timestamp) {
		return ErrTimeRegressed
	}
	return c.validateStatelessLocked(b)
}

// validateStatelessLocked is the head-independent half of block
// validation: tx root, optional certificate, transaction signatures and
// per-transaction policy checks.
func (c *Chain) validateStatelessLocked(b *types.Block) error {
	if err := b.VerifyTxRoot(); err != nil {
		return err
	}
	// Blocks arriving with a certificate (block sync, late joins) must
	// carry a quorum of the current committee's votes. In-flight
	// consensus proposals have no certificate yet and are protected by
	// the consensus protocol itself.
	if b.Cert != nil {
		keys := make(map[gcrypto.Address]gcrypto.PublicKey, len(c.endorsers))
		for _, e := range c.endorsers {
			keys[e.Address] = e.PubKey
		}
		n := len(c.endorsers)
		f := (n - 1) / 3
		quorum := (n+f)/2 + 1 // ⌈(n+f+1)/2⌉, see consensus.QuorumFor
		if err := b.Cert.Verify(b.Hash(), b.Header.Seq, keys, quorum); err != nil {
			return err
		}
	}
	// Signature checks dominate block validation cost; fan them out over
	// the verification pool (with memoization of previously accepted
	// signatures) and report the lowest failing index — exactly where
	// the serial per-tx loop would have stopped.
	if i, err := gcrypto.FirstBatchError(types.VerifyTxs(b.Txs)); err != nil {
		return fmt.Errorf("%w: tx %d: %v", ErrTxInvalid, i, err)
	}
	// seenCkpts tracks checkpoints within THIS block so two conflicting
	// roots for one (region, height) can never ride a single block —
	// the index-based Check below only sees previously committed state.
	var seenCkpts map[string]gcrypto.Hash
	for i := range b.Txs {
		tx := &b.Txs[i]
		if tx.Type == types.TxRegionCheckpoint && seenCkpts == nil {
			seenCkpts = make(map[string]gcrypto.Hash, 2)
		}
		if err := c.checkTxLocked(tx, seenCkpts); err != nil {
			return fmt.Errorf("tx %d: %w", i, err)
		}
	}
	return nil
}

// checkTxLocked applies the per-transaction policy checks shared by
// block validation and mempool admission: deployment-region membership,
// payload structure, and the sender/region restrictions of the
// coordination transaction types. seenCkpts, when non-nil, accumulates
// intra-block checkpoint roots for the in-block fork check (admission
// passes nil). Caller holds c.mu (read).
func (c *Chain) checkTxLocked(tx *types.Transaction, seenCkpts map[string]gcrypto.Hash) error {
	if !c.genesis.Policy.InRegion(tx.Geo.Location) {
		return fmt.Errorf("%w: outside deployment region", ErrTxInvalid)
	}
	switch tx.Type {
	case types.TxEvidence:
		rec, err := evidence.Decode(tx.Payload)
		if err != nil {
			return fmt.Errorf("%w: bad evidence payload: %v", ErrTxInvalid, err)
		}
		if err := rec.Verify(c.verifyCtxLocked()); err != nil {
			return fmt.Errorf("%w: %v", ErrTxInvalid, err)
		}
	case types.TxTransferLock:
		tr, err := shard.DecodeTransfer(tx.Payload)
		if err != nil {
			return fmt.Errorf("%w: bad transfer payload: %v", ErrTxInvalid, err)
		}
		// On a region chain, only transfers originating HERE may lock:
		// a committed foreign-source lock would mint a receipt no valid
		// checkpoint of this region can ever carry.
		if c.shardPrefix != "" && tr.Source != c.shardPrefix {
			return fmt.Errorf("%w: transfer lock for foreign source region %q (this chain serves %q)", ErrTxInvalid, tr.Source, c.shardPrefix)
		}
	case types.TxTransferApply:
		// Application is idempotent per receipt ID (duplicate applies
		// commit as counted no-ops), but the right to submit one is
		// restricted to endorsers: applying a receipt credits value,
		// so an arbitrary identity forging receipt payloads must not
		// mint balances. A region chain additionally refuses receipts
		// not destined for it.
		if _, ok := c.endorserLocked(tx.Sender); !ok {
			return ErrApplySender
		}
		rc, err := shard.DecodeReceipt(tx.Payload)
		if err != nil {
			return fmt.Errorf("%w: bad receipt payload: %v", ErrTxInvalid, err)
		}
		if c.shardPrefix != "" && rc.Dest != c.shardPrefix {
			return fmt.Errorf("%w: receipt destined for region %q (this chain serves %q)", ErrTxInvalid, rc.Dest, c.shardPrefix)
		}
	case types.TxRegionCheckpoint:
		// Only a committee member may attest a region head; and a checkpoint conflicting with an already-anchored
		// root for the same (region, height) is a cross-region fork
		// proof — refuse to commit it.
		if _, ok := c.endorserLocked(tx.Sender); !ok {
			return ErrConfigSender
		}
		cp, err := shard.DecodeCheckpoint(tx.Payload)
		if err != nil {
			return fmt.Errorf("%w: bad checkpoint payload: %v", ErrTxInvalid, err)
		}
		if c.anchors != nil {
			if err := c.anchors.Check(cp); err != nil {
				return fmt.Errorf("%w: %v", ErrTxInvalid, err)
			}
		}
		if seenCkpts != nil {
			key := fmt.Sprintf("%s@%d", cp.Region, cp.Height)
			if root, dup := seenCkpts[key]; dup && root != cp.Root {
				return fmt.Errorf("%w: conflicting in-block checkpoint roots for region %s height %d", ErrTxInvalid, cp.Region, cp.Height)
			}
			seenCkpts[key] = cp.Root
		}
	}
	return nil
}

// CheckTxAdmissible reports whether tx could validly appear in a block
// given the chain's current committee and region configuration.
// Mempool admission runs it so an invalid submission is refused at the
// door instead of poisoning proposals — a block carrying such a
// transaction would be rejected by every honest validator, turning one
// bad submission into a consensus stall.
func (c *Chain) CheckTxAdmissible(tx *types.Transaction) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.checkTxLocked(tx, nil)
}

// AddBlock validates and commits b: appends it, feeds every
// transaction's geo info into the election table, distributes rewards,
// and, when b is the era's boundary block, runs Algorithm 1 and
// switches the era. A conflicting block at a committed height is
// recorded as fork evidence and rejected with ErrForkDetected.
func (c *Chain) AddBlock(b *types.Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.validateLocked(b, nil); err != nil {
		if errors.Is(err, ErrForkDetected) {
			c.recordForkLocked(ForkEvidence{
				Height:    b.Header.Height,
				Committed: c.blocks[b.Header.Height-c.base].Hash(),
				Conflict:  b.Hash(),
				Proposer:  b.Header.Proposer,
			})
		}
		return err
	}
	// Algorithm 1 runs over the state b extends, as of its parent's time.
	boundary := c.crossesLocked(b)
	var elected ElectionResult
	if boundary {
		elected = c.electLocked(c.blocks[len(c.blocks)-1].Header.Timestamp)
	}
	c.blocks = append(c.blocks, b)
	c.byHash[b.Hash()] = b

	committee := make([]gcrypto.Address, 0, len(c.endorsers))
	for _, e := range c.endorsers {
		committee = append(committee, e.Address)
	}
	for i := range b.Txs {
		tx := &b.Txs[i]
		c.txIndex[tx.ID()] = TxLocation{Height: b.Header.Height, TxIndex: i}
		// Every transaction carries geographic information; chain it
		// into the election table (Section III-B3: "Data uploaded from
		// IoT devices to blockchains will add an entry to the election
		// table").
		row, recErr := c.table.Record(geo.Report{
			Location:  tx.Geo.Location,
			Timestamp: tx.Geo.Timestamp,
			Address:   c.nameLocked(tx.Sender),
		})
		c.accounts[tx.Sender] = tx.SenderPub
		if recErr == nil {
			// Fresh committed claim: index it and cross-check for the
			// same-cell Sybil pattern (stale/out-of-order reports carry
			// no new location information).
			c.noteGeoLocked(tx, row.CSC.Geohash, b.Header.Height, i)
		}
		if tx.Type == types.TxWitness {
			if st, err := types.DecodeWitnessStatement(tx.Payload); err == nil {
				c.witnesses.Record(WitnessRecord{
					Witness:   tx.Sender,
					Subject:   st.Subject,
					Geohash:   st.Geohash,
					Seen:      st.Seen,
					Timestamp: tx.Geo.Timestamp,
					Loc:       TxLocation{Height: b.Header.Height, TxIndex: i},
				})
				if !st.Seen {
					c.maybeSpoofLocked(st.Subject, b.Header.Timestamp)
				}
			}
		}
		if tx.Type == types.TxEvidence {
			if rec, err := evidence.Decode(tx.Payload); err == nil {
				c.applyEvidenceLocked(rec)
			}
		}
		if tx.Type == types.TxTransferLock {
			if tr, err := shard.DecodeTransfer(tx.Payload); err == nil {
				// The lock debits the sender at commit, so a transfer can
				// only move value the sender provably holds in this region
				// — the destination credit never mints from nothing.
				// Balances are stateful, so pipelined validation cannot
				// pre-screen funds: an underfunded lock commits as a
				// counted no-op and mints no receipt.
				if c.rewards.Debit(tx.Sender, tr.Amount) {
					c.outbound = append(c.outbound, shard.Receipt{
						ID:         tx.ID(),
						Source:     tr.Source,
						Dest:       tr.Dest,
						Recipient:  tr.Recipient,
						Amount:     tr.Amount,
						LockHeight: b.Header.Height,
					})
				} else {
					c.lockRejects++
				}
			}
		}
		if tx.Type == types.TxTransferApply {
			if rc, err := shard.DecodeReceipt(tx.Payload); err == nil {
				if _, dup := c.appliedReceipts[rc.ID]; dup {
					c.receiptDupes++
				} else {
					c.appliedReceipts[rc.ID] = TxLocation{Height: b.Header.Height, TxIndex: i}
					c.rewards.Credit(rc.Recipient, rc.Amount)
				}
			}
		}
		if tx.Type == types.TxRegionCheckpoint {
			if cp, err := shard.DecodeCheckpoint(tx.Payload); err == nil {
				// Validation refused conflicts both against the index and
				// within the block, under the same lock hold as this
				// apply, so Apply cannot conflict here. If it ever does,
				// keep the fork proof instead of dropping it: the anchored
				// root stands and the proposer who packed the conflicting
				// checkpoint is on the record.
				if err := c.anchorsLocked().Apply(cp); err != nil {
					committed, _ := c.anchors.RootAt(cp.Region, cp.Height)
					c.recordForkLocked(ForkEvidence{
						Height:    b.Header.Height,
						Committed: committed,
						Conflict:  cp.Root,
						Proposer:  b.Header.Proposer,
					})
				}
			}
		}
	}
	// Endorsers with recorded fork evidence forfeit endorsement shares:
	// "If an endorser node missed a block or caused a fork, it will
	// not be endorsed by other endorsers and get its rewards."
	var excluded map[gcrypto.Address]bool
	if len(c.forks) > 0 {
		excluded = make(map[gcrypto.Address]bool, len(c.forks))
		for _, f := range c.forks {
			excluded[f.Proposer] = true
		}
	}
	c.rewards.ApplyBlock(b, committee, excluded)
	if !b.Header.Proposer.IsZero() {
		// "Once an endorser successfully generated a block, its
		// geographic timer will reset by the system."
		c.table.ResetTimer(c.nameLocked(b.Header.Proposer), b.Header.Timestamp)
	}
	if boundary && c.endEraLocked(b, elected) && c.onEraBump != nil {
		c.onEraBump(c.exportStateLocked())
	}
	return nil
}

// CrossesBoundary reports whether b, a child of the head or of a block
// in flight above it, is stamped at or after the end of the current
// era: the block at which the chain runs Algorithm 1. Nothing may be
// built on such a block until it is applied.
func (c *Chain) CrossesBoundary(b *types.Block) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.crossesLocked(b)
}

func (c *Chain) crossesLocked(b *types.Block) bool {
	return c.genesis.Policy.Eras != ErasFrozen && !b.Header.Timestamp.Before(c.boundary)
}

// endEraLocked closes the era at its boundary block b with the election
// result computed as of b's parent, and reports whether the era
// advanced. It advances when the result changes the committee (and does
// not stall it), or on every boundary under ErasForced. Either way the
// next boundary is one era period on; a switch adds the switch pause,
// during which no block commits. The new era's rotation is fixed last,
// over the table as b left it: b's proposer has just had its timer
// reset, and the prune and the committee delta are applied.
func (c *Chain) endEraLocked(b *types.Block, res ElectionResult) bool {
	p := &c.genesis.Policy
	c.boundary = b.Header.Timestamp.Add(p.EraPeriod)
	if res.Stalled || res.IsEmpty() && p.Eras != ErasForced {
		return false
	}
	c.era++
	c.boundary = c.boundary.Add(p.SwitchPeriod)
	if latest := c.table.LatestTimestamp(); !latest.IsZero() {
		horizon := latest.Add(-pruneHorizonFactor * p.QualificationWindow)
		c.table.Prune(horizon)
		c.witnesses.Prune(horizon)
	}
	c.endorsers = slices.DeleteFunc(c.endorsers, func(e types.EndorserInfo) bool {
		return slices.Contains(res.Invalid, e.Address)
	})
	for _, e := range res.Qualified {
		c.endorsers = append(c.endorsers, e)
		c.everEndorsers[e.Address] = true
	}
	c.rotateLocked()
	return true
}

// rotateLocked fixes the era's rotation order (the primary of view v is
// member v mod n): descending geographic timer, address as the
// tiebreak. That is the incentive's block-generation bias ("A longer
// time in the geographic timer will have a higher chance of generating
// a new block", Section III-B5). It runs once per era, when the era
// begins, so the order is a fact of the chain: the blocks of the era
// reset their proposers' timers, and none of that moves it.
func (c *Chain) rotateLocked() {
	sort.Slice(c.endorsers, func(i, j int) bool {
		a, b := c.endorsers[i].Address, c.endorsers[j].Address
		if ta, tb := c.table.Timer(c.nameLocked(a)), c.table.Timer(c.nameLocked(b)); ta != tb {
			return ta > tb
		}
		return a.Less(b)
	})
}

// nameLocked returns a's hex form, encoding it once per address.
func (c *Chain) nameLocked(a gcrypto.Address) string {
	s, ok := c.names[a]
	if !ok {
		s = a.String()
		c.names[a] = s
	}
	return s
}

// SetEraBumpHook registers fn to observe every era advance at the
// exact block that commits it. fn receives the canonical post-block
// state — byte-identical on every honest node whether the block
// arrived through consensus or through sync, which is what anchors
// snapshot roots in a cross-node quorum. fn runs with the chain lock
// held and must not call back into the chain.
func (c *Chain) SetEraBumpHook(fn func(*ChainState)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEraBump = fn
}

// pruneHorizonFactor sets how far behind table time the election table
// and witness index retain rows: several qualification windows, so
// every lookback any election or dispute check consults stays intact.
// Pruning runs when an era switches — at a block every honest node
// applies — so the retained row set, and therefore the canonical
// ChainState encoding, is a pure function of chain content.
const pruneHorizonFactor = 4

// recordForkLocked counts a fork attempt and stores its evidence,
// collapsing duplicates and capping retained records.
func (c *Chain) recordForkLocked(fe ForkEvidence) {
	c.forkCount++
	for _, f := range c.forks {
		if f.Height == fe.Height && f.Conflict == fe.Conflict && f.Proposer == fe.Proposer {
			return
		}
	}
	if len(c.forks) < maxForkRecords {
		c.forks = append(c.forks, fe)
	}
}

// TxLocation identifies where a transaction was committed.
type TxLocation struct {
	Height  uint64
	TxIndex int
}

// FindTx locates a committed transaction by ID; clients use it to
// confirm commitment (the paper's latency endpoint: "the transaction
// is written to the ledger").
func (c *Chain) FindTx(id gcrypto.Hash) (TxLocation, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, ok := c.txIndex[id]
	return loc, ok
}

// Blocks returns a snapshot of all blocks still held in memory, oldest
// first. For an uncompacted chain that is genesis onward; after
// compaction or a snapshot restore it starts at BaseHeight.
func (c *Chain) Blocks() []*types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*types.Block, len(c.blocks))
	copy(out, c.blocks)
	return out
}
