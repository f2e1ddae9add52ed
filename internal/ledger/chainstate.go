package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/shard"
	"gpbft/internal/types"
)

// ChainState is the canonical, deterministic serialization of a chain
// at a checkpoint height: everything a node needs to validate and
// extend the chain without replaying history. Two honest nodes at the
// same height produce byte-identical encodings — that is what lets
// fast sync anchor trust in a quorum of peer-reported state roots
// rather than in any single snapshot producer.
//
// Deliberately EXCLUDED (a restored node starts them empty):
//
//   - fork evidence (forks/forkCount): records of *attempted* forks
//     observed locally; which attempts a node saw depends on message
//     delivery, not committed state.
//   - local detection state (detected, detectedIDs, flagged, lastGeo,
//     cellSeen): the in-flight misbehavior detector. Its evolution
//     depends on when a node joined, so including it would make the
//     canonical encoding history-dependent and break root agreement
//     between long-running nodes and past fast-syncers. Committed
//     evidence (the banned set and the dedup set) IS carried; only the
//     not-yet-committed local suspicion is rebuilt from fresh
//     observations.
//   - the checkpoint block's commit certificate: every node's cert
//     aggregates a different 2f+1 vote subset. The restored base block
//     is certless; its authenticity comes from the root quorum.
type ChainState struct {
	GenesisHash gcrypto.Hash
	Era         uint64
	// Boundary is the header time at which the era's time is up.
	Boundary time.Time
	// Base is the checkpoint block: the head at export time, with its
	// commit certificate. Its header carries the last-stable (view,
	// seq) of the producing era.
	Base types.Block

	// Endorsers is the committee in the era's rotation order.
	Endorsers     []types.EndorserInfo
	Accounts      []AccountRecord
	EverEndorsers []gcrypto.Address
	Banned        []BannedEntry
	Evidence      []gcrypto.Hash

	TableLatest time.Time
	Devices     []DeviceState
	Witnesses   []WitnessRecord
	Balances    []BalanceRecord
	TxIndex     []TxIndexRecord

	// Cross-region state (see receipts.go): outbound transfer receipts
	// in commit order, applied receipts sorted by ID, the duplicate-
	// apply counter, and — for anchor chains — the anchored checkpoint
	// history and covered receipts.
	Outbound       []shard.Receipt
	Applied        []AppliedReceipt
	ReceiptDupes   uint64
	LockRejects    uint64
	Anchors        []shard.AnchorRecord
	AnchorReceipts []shard.Receipt
}

// AccountRecord is one known sender: address and public key.
type AccountRecord struct {
	Address gcrypto.Address
	PubKey  []byte
}

// DeviceState is one election-table device history: the residence
// streak anchor plus the retained rows.
type DeviceState struct {
	Address string
	Anchor  time.Time
	LastCSC string
	Entries []DeviceEntry
}

// DeviceEntry is one retained election-table row.
type DeviceEntry struct {
	Geohash   string
	Timestamp time.Time
	Timer     time.Duration
}

// BalanceRecord is one reward-ledger account.
type BalanceRecord struct {
	Address  gcrypto.Address
	Balance  uint64
	Produced uint64
}

// TxIndexRecord locates one committed transaction.
type TxIndexRecord struct {
	ID  gcrypto.Hash
	Loc TxLocation
}

// Errors returned by state export/restore.
var (
	ErrStateGenesis = errors.New("ledger: state genesis mismatch")
	ErrStateStale   = errors.New("ledger: state not ahead of current head")
	ErrStateShape   = errors.New("ledger: malformed chain state")
)

// chainStateTag versions the canonical encoding; v2 appended the
// cross-region receipt and anchor indexes, v3 the refused-lock counter,
// v4 the era boundary, and v5 writes the committee in the era's rotation
// order instead of address order.
const chainStateTag = "gpbft/chainstate/v5"

// Height returns the checkpoint height.
func (st *ChainState) Height() uint64 { return st.Base.Header.Height }

// hashSize is the encoded width of a digest.
const hashSize = len(gcrypto.Hash{})

var errStateTag = fmt.Errorf("%w: bad tag", ErrStateShape)

// Canonical states the chain state's format. Each list names the length
// of its element's shortest encoding, which bounds the count a decode
// accepts.
func (st *ChainState) Canonical(c codec.Coder) {
	c.Tag(chainStateTag, errStateTag)
	c.Raw(st.GenesisHash[:])
	c.Uint64(&st.Era)
	c.Time(&st.Boundary)
	st.Base.Canonical(c)

	codec.List(c, &st.Endorsers, types.MinEndorserInfoSize, (*types.EndorserInfo).Canonical)
	codec.List(c, &st.Accounts, gcrypto.AddressSize+1, (*AccountRecord).Canonical) // an address, then a key of at least its length
	codec.List(c, &st.EverEndorsers, gcrypto.AddressSize, (*gcrypto.Address).Canonical)
	codec.List(c, &st.Banned, gcrypto.AddressSize+hashSize, (*BannedEntry).Canonical)
	codec.List(c, &st.Evidence, hashSize, (*gcrypto.Hash).Canonical)

	c.Time(&st.TableLatest)
	codec.List(c, &st.Devices, 1+8+1+1, (*DeviceState).Canonical)                            // two strings of at least their length, a time, a count
	codec.List(c, &st.Witnesses, 2*gcrypto.AddressSize+1+1+8+16, (*WitnessRecord).Canonical) // two addresses, a cell, a flag, a time, a location
	codec.List(c, &st.Balances, gcrypto.AddressSize+16, (*BalanceRecord).Canonical)
	codec.List(c, &st.TxIndex, hashSize+16, (*TxIndexRecord).Canonical) // an ID and a location

	codec.List(c, &st.Outbound, shard.MinReceiptSize, (*shard.Receipt).Canonical)
	codec.List(c, &st.Applied, hashSize+16, (*AppliedReceipt).Canonical)
	c.Uint64(&st.ReceiptDupes)
	c.Uint64(&st.LockRejects)
	codec.List(c, &st.Anchors, 1+8+8+hashSize, (*shard.AnchorRecord).Canonical) // a region, an era, a height, a root
	codec.List(c, &st.AnchorReceipts, shard.MinReceiptSize, (*shard.Receipt).Canonical)
}

// Canonical states the account's format.
func (a *AccountRecord) Canonical(c codec.Coder) {
	c.Raw(a.Address[:])
	c.Bytes(&a.PubKey)
}

// Canonical states the ban's format.
func (b *BannedEntry) Canonical(c codec.Coder) {
	c.Raw(b.Address[:])
	c.Raw(b.Evidence[:])
}

// Canonical states the device history's format.
func (d *DeviceState) Canonical(c codec.Coder) {
	c.String(&d.Address)
	c.Time(&d.Anchor)
	c.String(&d.LastCSC)
	codec.List(c, &d.Entries, 1+8+8, (*DeviceEntry).Canonical) // a cell, a time, a timer
}

// Canonical states the row's format.
func (e *DeviceEntry) Canonical(c codec.Coder) {
	c.String(&e.Geohash)
	c.Time(&e.Timestamp)
	codec.Int64(c, &e.Timer)
}

// Canonical states the witness record's format.
func (w *WitnessRecord) Canonical(c codec.Coder) {
	c.Raw(w.Witness[:])
	c.Raw(w.Subject[:])
	c.String(&w.Geohash)
	c.Bool(&w.Seen)
	c.Time(&w.Timestamp)
	w.Loc.Canonical(c)
}

// Canonical states the balance's format.
func (b *BalanceRecord) Canonical(c codec.Coder) {
	c.Raw(b.Address[:])
	c.Uint64(&b.Balance)
	c.Uint64(&b.Produced)
}

// Canonical states the index entry's format.
func (t *TxIndexRecord) Canonical(c codec.Coder) {
	c.Raw(t.ID[:])
	t.Loc.Canonical(c)
}

// Canonical states the applied receipt's format.
func (a *AppliedReceipt) Canonical(c codec.Coder) {
	c.Raw(a.ID[:])
	a.Loc.Canonical(c)
}

// Canonical states the location's format: a height, then an index.
func (l *TxLocation) Canonical(c codec.Coder) {
	c.Uint64(&l.Height)
	codec.Int64(c, &l.TxIndex)
}

// UnmarshalCanonical decodes a chain state.
func (st *ChainState) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, st) }

// EncodeChainState returns the canonical bytes of st.
func EncodeChainState(st *ChainState) []byte { return codec.Marshal(st) }

// DecodeChainState parses canonical bytes into a chain state.
func DecodeChainState(b []byte) (*ChainState, error) { return codec.Unmarshal[ChainState](b) }

// Root returns the state root: the digest of the canonical encoding.
// Honest nodes at the same height agree on it byte for byte, so a
// quorum of peer-reported roots authenticates a snapshot end to end.
func (st *ChainState) Root() gcrypto.Hash {
	return gcrypto.HashBytes(EncodeChainState(st))
}

// ExportState serializes the chain at its current head into a
// deterministic ChainState. The result depends only on committed
// blocks (plus genesis), never on this node's message history.
func (c *Chain) ExportState() *ChainState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.exportStateLocked()
}

func (c *Chain) exportStateLocked() *ChainState {
	// The checkpoint block is carried WITHOUT its commit certificate:
	// certs aggregate whichever 2f+1 votes each node happened to
	// collect, so including one would make the encoding — and the
	// root — node-dependent. Snapshot trust is anchored in the quorum
	// of peer-reported roots, not in the checkpoint's certificate.
	head := *c.blocks[len(c.blocks)-1]
	head.Cert = nil
	st := &ChainState{
		GenesisHash: c.genesis.Hash(),
		Era:         c.era,
		Boundary:    c.boundary,
		Base:        head,
	}

	st.Endorsers = append([]types.EndorserInfo(nil), c.endorsers...)

	st.Accounts = make([]AccountRecord, 0, len(c.accounts))
	for a, pub := range c.accounts {
		st.Accounts = append(st.Accounts, AccountRecord{Address: a, PubKey: pub})
	}
	sort.Slice(st.Accounts, func(i, j int) bool {
		return st.Accounts[i].Address.Less(st.Accounts[j].Address)
	})

	st.EverEndorsers = make([]gcrypto.Address, 0, len(c.everEndorsers))
	for a := range c.everEndorsers {
		st.EverEndorsers = append(st.EverEndorsers, a)
	}
	sort.Slice(st.EverEndorsers, func(i, j int) bool {
		return st.EverEndorsers[i].Less(st.EverEndorsers[j])
	})

	st.Banned = make([]BannedEntry, 0, len(c.banned))
	for a, id := range c.banned {
		st.Banned = append(st.Banned, BannedEntry{Address: a, Evidence: id})
	}
	sort.Slice(st.Banned, func(i, j int) bool {
		return st.Banned[i].Address.Less(st.Banned[j].Address)
	})

	st.Evidence = make([]gcrypto.Hash, 0, len(c.evidenceSeen))
	for id := range c.evidenceSeen {
		st.Evidence = append(st.Evidence, id)
	}
	sort.Slice(st.Evidence, func(i, j int) bool {
		return bytes.Compare(st.Evidence[i][:], st.Evidence[j][:]) < 0
	})

	st.TableLatest, st.Devices = c.table.exportDevices()
	st.Witnesses = c.witnesses.exportRecords()
	st.Balances = c.rewards.exportBalances()

	st.TxIndex = make([]TxIndexRecord, 0, len(c.txIndex))
	for id, loc := range c.txIndex {
		st.TxIndex = append(st.TxIndex, TxIndexRecord{ID: id, Loc: loc})
	}
	sort.Slice(st.TxIndex, func(i, j int) bool {
		return bytes.Compare(st.TxIndex[i].ID[:], st.TxIndex[j].ID[:]) < 0
	})

	c.exportReceiptsLocked(st)
	return st
}

// exportDevices snapshots the election table deterministically: devices
// sorted by address, rows in chronological order. The latest ("table
// time") stamp is serialized explicitly — after pruning it can exceed
// every retained row.
func (t *ElectionTable) exportDevices() (time.Time, []DeviceState) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]DeviceState, 0, len(t.devices))
	for addr, h := range t.devices {
		d := DeviceState{Address: addr, Anchor: h.anchor, LastCSC: h.lastCSC}
		d.Entries = make([]DeviceEntry, len(h.entries))
		for i, e := range h.entries {
			d.Entries[i] = DeviceEntry{Geohash: e.CSC.Geohash, Timestamp: e.Timestamp, Timer: e.Timer}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Address < out[j].Address })
	return t.latest, out
}

// restoreDevices rebuilds a table from a snapshot. The cell index is
// recomputed by replaying rows in order: Record overwrites a (cell,
// device) stamp with each newer row, and Prune removes device rows and
// cell stamps at the same horizon, so the retained rows determine the
// cell index exactly.
func restoreDevices(latest time.Time, devices []DeviceState) *ElectionTable {
	t := NewElectionTable()
	t.latest = latest
	for i := range devices {
		d := &devices[i]
		h := &deviceHistory{anchor: d.Anchor, lastCSC: d.LastCSC}
		h.entries = make([]Entry, len(d.Entries))
		for j, e := range d.Entries {
			h.entries[j] = Entry{
				CSC:       geo.CSC{Geohash: e.Geohash, Address: d.Address},
				Timestamp: e.Timestamp,
				Timer:     e.Timer,
			}
			cell := t.cells[e.Geohash]
			if cell == nil {
				cell = make(map[string]time.Time)
				t.cells[e.Geohash] = cell
			}
			cell[d.Address] = e.Timestamp
		}
		t.devices[d.Address] = h
	}
	return t
}

// exportRecords snapshots the witness index: subjects sorted by
// address, statements in commit order.
func (w *WitnessIndex) exportRecords() []WitnessRecord {
	w.mu.RLock()
	defer w.mu.RUnlock()
	subjects := make([]gcrypto.Address, 0, len(w.bySubject))
	for s := range w.bySubject {
		subjects = append(subjects, s)
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i].Less(subjects[j]) })
	out := make([]WitnessRecord, 0, w.totalCount)
	for _, s := range subjects {
		out = append(out, w.bySubject[s]...)
	}
	return out
}

// exportBalances snapshots the reward ledger: the union of balance and
// production accounts, sorted. All-zero records are omitted — the
// in-memory maps may hold zero-valued bookkeeping entries that a
// restored ledger would not recreate, and the canonical encoding must
// not depend on that incidental history.
func (r *RewardLedger) exportBalances() []BalanceRecord {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := make(map[gcrypto.Address]bool, len(r.balances)+len(r.produced))
	out := make([]BalanceRecord, 0, len(r.balances)+len(r.produced))
	for a, v := range r.balances {
		seen[a] = true
		if v == 0 && r.produced[a] == 0 {
			continue
		}
		out = append(out, BalanceRecord{Address: a, Balance: v, Produced: r.produced[a]})
	}
	for a, p := range r.produced {
		if !seen[a] && p > 0 {
			out = append(out, BalanceRecord{Address: a, Produced: p})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Address.Less(out[j].Address) })
	return out
}

// validateState performs structural checks shared by restore and
// install: genesis binding, tx-root integrity of the base block, a
// committee without a repeated member, and index sanity.
func validateState(g *Genesis, st *ChainState) error {
	if st.GenesisHash != g.Hash() {
		return ErrStateGenesis
	}
	if err := st.Base.VerifyTxRoot(); err != nil {
		return fmt.Errorf("%w: base block: %v", ErrStateShape, err)
	}
	seen := make(map[gcrypto.Address]bool, len(st.Endorsers))
	for _, e := range st.Endorsers {
		if seen[e.Address] {
			return fmt.Errorf("%w: endorser %s listed twice", ErrStateShape, e.Address.Short())
		}
		seen[e.Address] = true
	}
	// The base block carries no certificate (deliberately excluded from
	// the canonical encoding — certs are node-dependent); a snapshot's
	// authenticity rests on the quorum of peer-reported roots instead.
	for i := range st.TxIndex {
		if st.TxIndex[i].Loc.Height > st.Height() {
			return fmt.Errorf("%w: tx index beyond checkpoint", ErrStateShape)
		}
	}
	return nil
}

// applyStateLocked overwrites the chain's guts with the snapshot
// content. Caller holds c.mu.
func (c *Chain) applyStateLocked(st *ChainState) {
	base := st.Base
	c.era = st.Era
	c.boundary = st.Boundary
	c.base = base.Header.Height
	c.blocks = []*types.Block{&base}
	c.byHash = map[gcrypto.Hash]*types.Block{base.Hash(): &base}

	c.endorsers = append([]types.EndorserInfo(nil), st.Endorsers...)
	c.accounts = make(map[gcrypto.Address][]byte, len(st.Accounts))
	for _, a := range st.Accounts {
		c.accounts[a.Address] = a.PubKey
	}
	c.everEndorsers = make(map[gcrypto.Address]bool, len(st.EverEndorsers))
	for _, a := range st.EverEndorsers {
		c.everEndorsers[a] = true
	}
	c.banned = make(map[gcrypto.Address]gcrypto.Hash, len(st.Banned))
	for _, b := range st.Banned {
		c.banned[b.Address] = b.Evidence
	}
	c.evidenceSeen = make(map[gcrypto.Hash]bool, len(st.Evidence))
	for _, id := range st.Evidence {
		c.evidenceSeen[id] = true
	}
	c.evidenceCnt = uint64(len(st.Evidence))

	c.table = restoreDevices(st.TableLatest, st.Devices)
	c.witnesses = NewWitnessIndex()
	for _, rec := range st.Witnesses {
		c.witnesses.Record(rec)
	}
	c.rewards = NewRewardLedger()
	for _, b := range st.Balances {
		if b.Balance > 0 {
			c.rewards.balances[b.Address] = b.Balance
		}
		if b.Produced > 0 {
			c.rewards.produced[b.Address] = b.Produced
		}
	}
	c.txIndex = make(map[gcrypto.Hash]TxLocation, len(st.TxIndex))
	for _, rec := range st.TxIndex {
		c.txIndex[rec.ID] = rec.Loc
	}

	c.applyReceiptsLocked(st)

	// Local detection state restarts empty (see the ChainState doc).
	c.forks = nil
	c.forkCount = 0
	c.detected = nil
	c.detectedIDs = make(map[gcrypto.Hash]bool)
	c.flagged = make(map[gcrypto.Address]bool)
	c.lastGeo = make(map[gcrypto.Address]geoEntry)
	c.cellSeen = make(map[string]map[gcrypto.Address]geoEntry)
}

// RestoreChain builds a chain whose history starts at the snapshot's
// checkpoint block instead of genesis. Blocks after the checkpoint are
// applied with AddBlock as usual.
func RestoreChain(g *Genesis, st *ChainState) (*Chain, error) {
	if err := validateState(g, st); err != nil {
		return nil, err
	}
	c, err := NewChain(g)
	if err != nil {
		return nil, err
	}
	if st.Height() == 0 {
		return c, nil // a genesis snapshot carries nothing beyond genesis
	}
	c.mu.Lock()
	c.applyStateLocked(st)
	c.mu.Unlock()
	return c, nil
}

// InstallState fast-forwards a live chain to a remote snapshot. The
// snapshot must be strictly ahead of the current head; everything
// below the checkpoint is discarded. The caller is responsible for
// authenticating the snapshot (signature plus a quorum of peer-head
// roots) BEFORE installing.
func (c *Chain) InstallState(st *ChainState) error {
	if err := validateState(c.genesis, st); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.blocks[len(c.blocks)-1].Header.Height
	if st.Height() <= head {
		return fmt.Errorf("%w: snapshot height %d, head %d", ErrStateStale, st.Height(), head)
	}
	c.applyStateLocked(st)
	return nil
}

// BaseHeight returns the height of the oldest block this chain still
// holds (0 when history reaches genesis). Blocks below it were
// compacted away or replaced by a snapshot checkpoint.
func (c *Chain) BaseHeight() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base
}

// CompactBelow drops in-memory blocks with height < h, keeping at
// least the head. Bounds a long-running node's memory to O(state +
// tail) alongside the on-disk log compaction.
func (c *Chain) CompactBelow(h uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.blocks[len(c.blocks)-1].Header.Height
	if h > head {
		h = head
	}
	if h <= c.base {
		return
	}
	cut := int(h - c.base)
	for _, b := range c.blocks[:cut] {
		delete(c.byHash, b.Hash())
	}
	c.blocks = append([]*types.Block(nil), c.blocks[cut:]...)
	c.base = h
}
