package ledger

import (
	"errors"
	"fmt"
	"sync"

	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
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
	ErrConfigSender   = errors.New("ledger: config transaction from non-endorser")
	ErrApplySender    = errors.New("ledger: transfer apply from non-endorser")
	ErrUnknownHeight  = errors.New("ledger: no block at height")
	ErrEraRegressed   = errors.New("ledger: block era lower than head era")
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
	// endorsers is the current committee, derived from genesis plus
	// committed config transactions.
	endorsers map[gcrypto.Address]types.EndorserInfo
	// era is the current G-PBFT era, advanced by committed config
	// transactions.
	era uint64
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
		endorsers:     make(map[gcrypto.Address]types.EndorserInfo, len(g.Endorsers)),
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

		appliedReceipts: make(map[gcrypto.Hash]TxLocation),
	}
	for _, e := range g.Endorsers {
		c.accounts[e.Address] = e.PubKey
	}
	gb := g.Block()
	c.blocks = append(c.blocks, gb)
	c.byHash[gb.Hash()] = gb
	for _, e := range g.Endorsers {
		c.endorsers[e.Address] = e
		c.everEndorsers[e.Address] = true
		if g.Policy.EndorserEndowment > 0 {
			c.rewards.Credit(e.Address, g.Policy.EndorserEndowment)
		}
	}
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

// Era returns the current G-PBFT era (the highest NewEra of any
// committed config transaction; 0 at genesis).
func (c *Chain) Era() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.era
}

// AccountKey returns the recorded public key of an address, or nil.
func (c *Chain) AccountKey(addr gcrypto.Address) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.accounts[addr]
}

// Endorsers returns the current committee (genesis plus committed
// config deltas), sorted by address for deterministic ordering.
func (c *Chain) Endorsers() []types.EndorserInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]types.EndorserInfo, 0, len(c.endorsers))
	for _, e := range c.endorsers {
		out = append(out, e)
	}
	sortEndorsers(out)
	return out
}

// IsEndorser reports whether addr is in the current committee.
func (c *Chain) IsEndorser(addr gcrypto.Address) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.endorsers[addr]
	return ok
}

// EndorserKeys returns the committee's address → public key map, for
// certificate verification.
func (c *Chain) EndorserKeys() map[gcrypto.Address]gcrypto.PublicKey {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[gcrypto.Address]gcrypto.PublicKey, len(c.endorsers))
	for a, e := range c.endorsers {
		out[a] = e.PubKey
	}
	return out
}

// Forks returns recorded fork evidence.
func (c *Chain) Forks() []ForkEvidence {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ForkEvidence, len(c.forks))
	copy(out, c.forks)
	return out
}

// ValidateBlock checks b against the current head without committing:
// height continuity, parent linkage, tx root, transaction signatures,
// region membership of every geo report, and config-from-endorser.
func (c *Chain) ValidateBlock(b *types.Block) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.validateLocked(b)
}

func (c *Chain) validateLocked(b *types.Block) error {
	head := c.blocks[len(c.blocks)-1]
	if existing, ok := c.byHash[b.Hash()]; ok && existing != nil {
		return ErrDuplicateBlock
	}
	if b.Header.Height != head.Header.Height+1 {
		if b.Header.Height <= head.Header.Height {
			if b.Header.Height < c.base {
				// Below the compaction checkpoint the committed block is
				// gone, so a conflict can no longer be adjudicated; the
				// height is committed either way, so the block is refused
				// as a duplicate and never applied.
				return ErrDuplicateBlock
			}
			committed := c.blocks[b.Header.Height-c.base]
			if committed.Hash() != b.Hash() {
				return ErrForkDetected
			}
			return ErrDuplicateBlock
		}
		return fmt.Errorf("%w: got %d, head %d", ErrHeightGap, b.Header.Height, head.Header.Height)
	}
	if b.Header.PrevHash != head.Hash() {
		return ErrPrevHash
	}
	if b.Header.Era < head.Header.Era {
		return ErrEraRegressed
	}
	return c.validateStatelessLocked(b)
}

// ValidateBlockAgainst checks b as the immediate child of parent — the
// head-independent half of validation plus parent linkage. Pipelined
// consensus uses it to judge proposals whose parent is itself still in
// flight: everything except the head comparison is identical to
// ValidateBlock.
func (c *Chain) ValidateBlockAgainst(b, parent *types.Block) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if b.Header.Height != parent.Header.Height+1 {
		return fmt.Errorf("%w: got %d, parent %d", ErrHeightGap, b.Header.Height, parent.Header.Height)
	}
	if b.Header.PrevHash != parent.Hash() {
		return ErrPrevHash
	}
	if b.Header.Era < parent.Header.Era {
		return ErrEraRegressed
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
		for a, e := range c.endorsers {
			keys[a] = e.PubKey
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
	case types.TxConfig:
		if _, ok := c.endorsers[tx.Sender]; !ok {
			return ErrConfigSender
		}
		if _, err := types.DecodeConfigChange(tx.Payload); err != nil {
			return fmt.Errorf("%w: bad config payload: %v", ErrTxInvalid, err)
		}
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
		// restricted like TxConfig: applying a receipt credits value,
		// so an arbitrary identity forging receipt payloads must not
		// mint balances. A region chain additionally refuses receipts
		// not destined for it.
		if _, ok := c.endorsers[tx.Sender]; !ok {
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
		// Like TxConfig, only a committee member may attest a region
		// head; and a checkpoint conflicting with an already-anchored
		// root for the same (region, height) is a cross-region fork
		// proof — refuse to commit it.
		if _, ok := c.endorsers[tx.Sender]; !ok {
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
// transaction's geo info into the election table, applies config
// deltas to the committee, and distributes rewards. A conflicting
// block at a committed height is recorded as fork evidence and
// rejected with ErrForkDetected.
func (c *Chain) AddBlock(b *types.Block) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	eraBefore := c.era
	if err := c.validateLocked(b); err != nil {
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
	c.blocks = append(c.blocks, b)
	c.byHash[b.Hash()] = b

	committee := make([]gcrypto.Address, 0, len(c.endorsers))
	for a := range c.endorsers {
		committee = append(committee, a)
	}
	for i := range b.Txs {
		tx := &b.Txs[i]
		c.txIndex[tx.ID()] = TxLocation{Height: b.Header.Height, TxIndex: i}
		// Every transaction carries geographic information; chain it
		// into the election table (Section III-B3: "Data uploaded from
		// IoT devices to blockchains will add an entry to the election
		// table").
		_, recErr := c.table.Record(tx.Report())
		c.accounts[tx.Sender] = tx.SenderPub
		if recErr == nil {
			// Fresh committed claim: index it and cross-check for the
			// same-cell Sybil pattern (stale/out-of-order reports carry
			// no new location information).
			c.noteGeoLocked(tx, b.Header.Height, i)
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
		if tx.Type == types.TxConfig {
			change, err := types.DecodeConfigChange(tx.Payload)
			if err != nil {
				continue // validated above; defensive
			}
			c.applyConfigLocked(change)
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
		c.table.ResetTimer(b.Header.Proposer.String(), b.Header.Timestamp)
	}
	if c.era != eraBefore && c.onEraBump != nil {
		c.onEraBump(c.exportStateLocked())
	}
	return nil
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
// Pruning runs at era boundaries (config application) — a point every
// honest node reaches at the same committed block — so the retained
// row set, and therefore the canonical ChainState encoding, is a pure
// function of chain content.
const pruneHorizonFactor = 4

func (c *Chain) applyConfigLocked(change *types.ConfigChange) {
	if change.NewEra > c.era {
		c.era = change.NewEra
		if latest := c.table.LatestTimestamp(); !latest.IsZero() {
			horizon := latest.Add(-pruneHorizonFactor * c.genesis.Policy.QualificationWindow)
			c.table.Prune(horizon)
			c.witnesses.Prune(horizon)
		}
	}
	for _, a := range change.Remove {
		delete(c.endorsers, a)
	}
	for _, e := range change.Add {
		if c.genesis.Policy.Blacklisted(e.Address) {
			continue
		}
		if !c.genesis.Policy.DisableExpulsion {
			if _, bad := c.banned[e.Address]; bad {
				continue // convicted by evidence: readmission refused
			}
		}
		if len(c.endorsers) >= c.genesis.Policy.MaxEndorsers {
			break
		}
		c.endorsers[e.Address] = e
		c.everEndorsers[e.Address] = true
	}
}

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

func sortEndorsers(es []types.EndorserInfo) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Address.Less(es[j-1].Address); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
