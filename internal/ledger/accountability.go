package ledger

import (
	"bytes"
	"sort"
	"time"

	"gpbft/internal/evidence"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// Accountability state. Everything in this file is derived purely from
// committed blocks plus the genesis policy, so every honest replica
// computes the identical dynamic blacklist — expulsion is a consensus
// decision, not a local opinion, and a replaying node (gpbft-inspect, a
// restarted gpbft-node) reconstructs it exactly.
//
// Two flows feed it:
//
//   - Committed TxEvidence transactions (validated self-verifying
//     records) are folded into the banned set immediately. They always
//     record the offense; whether the ban also affects committee
//     membership is gated by Policy.DisableExpulsion at the points of
//     enforcement (election, config application).
//   - The chain itself detects offenses visible only in committed
//     data: two identities reporting one CSC cell within SybilWindow,
//     and a location claim disputed by a MinWitnesses quorum. Detected
//     records are queued for the era layer to submit as TxEvidence, at
//     which point the first flow takes over.

// maxForkRecords bounds the retained fork-evidence slice; a sustained
// fork-feeding attack otherwise grows it without limit. The total is
// still counted (ForkCount) and duplicates are collapsed.
const maxForkRecords = 128

// geoEntry is the latest committed location claim of one device.
type geoEntry struct {
	cell string
	ts   time.Time
	loc  TxLocation
}

// verifyCtxLocked builds the evidence verification parameters from the
// genesis policy and chain state. CredibleWitness accepts any address
// that is or ever was an endorser: the set only grows, so a record
// valid once stays valid forever — block validity must not flip when
// the committee rotates between a proof's assembly and its commitment.
func (c *Chain) verifyCtxLocked() evidence.VerifyContext {
	p := &c.genesis.Policy
	return evidence.VerifyContext{
		SybilWindow:  p.SybilWindow,
		MinWitnesses: p.MinWitnesses,
		CredibleWitness: func(a gcrypto.Address) bool {
			return c.everEndorsers[a]
		},
	}
}

// applyEvidenceLocked folds one committed evidence record into the
// banned set. Records are deduplicated by ID (many honest replicas
// typically submit the same accusation).
func (c *Chain) applyEvidenceLocked(rec *evidence.Record) {
	id := rec.ID()
	if c.evidenceSeen[id] {
		return
	}
	c.evidenceSeen[id] = true
	c.evidenceCnt++
	for _, a := range rec.Offenders {
		if _, dup := c.banned[a]; !dup {
			c.banned[a] = id
		}
	}
}

// noteGeoLocked indexes a committed fresh location claim in cell (the
// geohash of its CSC) and checks it against other devices' latest
// claims for the same cell — the Sybil pattern of Section IV-A1. Each
// device occupies at most one cell in the index, so memory is bounded
// by the device population.
func (c *Chain) noteGeoLocked(tx *types.Transaction, cell string, height uint64, idx int) {
	if prev, ok := c.lastGeo[tx.Sender]; ok && prev.cell != cell {
		if m := c.cellSeen[prev.cell]; m != nil {
			delete(m, tx.Sender)
			if len(m) == 0 {
				delete(c.cellSeen, prev.cell)
			}
		}
	}
	ent := geoEntry{cell: cell, ts: tx.Geo.Timestamp, loc: TxLocation{Height: height, TxIndex: idx}}
	if window := c.genesis.Policy.SybilWindow; window > 0 && !c.flagged[tx.Sender] {
		// Accuse in address order: every replica records the same evidence.
		others := make([]gcrypto.Address, 0, len(c.cellSeen[cell]))
		for other := range c.cellSeen[cell] {
			others = append(others, other)
		}
		sort.Slice(others, func(i, j int) bool { return others[i].Less(others[j]) })
		for _, other := range others {
			oent := c.cellSeen[cell][other]
			if other == tx.Sender || c.flagged[other] {
				continue
			}
			gap := ent.ts.Sub(oent.ts)
			if gap < 0 {
				gap = -gap
			}
			if gap > window {
				continue
			}
			otherTx := c.txAtLocked(oent.loc)
			if otherTx == nil {
				continue
			}
			rec, err := evidence.NewSybilSameCell(otherTx, tx, window)
			if err != nil {
				continue
			}
			c.flagged[tx.Sender] = true
			c.flagged[other] = true
			c.queueDetectedLocked(rec)
			break
		}
	}
	m := c.cellSeen[cell]
	if m == nil {
		m = make(map[gcrypto.Address]geoEntry)
		c.cellSeen[cell] = m
	}
	m[tx.Sender] = ent
	c.lastGeo[tx.Sender] = ent
}

// maybeSpoofLocked checks whether a subject's current location claim
// has accumulated a dispute quorum: MinWitnesses distinct, credible
// witnesses attesting the subject is NOT at its claimed cell. Called on
// every committed disputing statement.
func (c *Chain) maybeSpoofLocked(subject gcrypto.Address, asOf time.Time) {
	p := &c.genesis.Policy
	if p.MinWitnesses <= 0 || c.flagged[subject] {
		return
	}
	if _, already := c.banned[subject]; already {
		return
	}
	claim, ok := c.lastGeo[subject]
	if !ok {
		return
	}
	claimTx := c.txAtLocked(claim.loc)
	if claimTx == nil {
		return
	}
	seen := make(map[gcrypto.Address]*types.Transaction)
	for _, st := range c.witnesses.StatementsFor(subject, asOf.Add(-p.QualificationWindow)) {
		if st.Seen || st.Geohash != claim.cell || st.Witness == subject {
			continue
		}
		if !c.everEndorsers[st.Witness] {
			continue
		}
		if _, dup := seen[st.Witness]; dup {
			continue
		}
		wtx := c.txAtLocked(st.Loc)
		if wtx == nil {
			continue
		}
		seen[st.Witness] = wtx
	}
	if len(seen) < p.MinWitnesses {
		return
	}
	// Deterministic witness selection: the MinWitnesses lowest addresses.
	addrs := make([]gcrypto.Address, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		return bytes.Compare(addrs[i][:], addrs[j][:]) < 0
	})
	wtxs := make([]*types.Transaction, 0, p.MinWitnesses)
	for _, a := range addrs[:p.MinWitnesses] {
		wtxs = append(wtxs, seen[a])
	}
	rec, err := evidence.NewLocationSpoof(claimTx, wtxs, c.verifyCtxLocked())
	if err != nil {
		return
	}
	c.flagged[subject] = true
	c.queueDetectedLocked(rec)
}

// queueDetectedLocked appends a chain-detected record for the era layer
// to pick up (DetectedEvidence) and submit as a transaction.
func (c *Chain) queueDetectedLocked(rec *evidence.Record) {
	id := rec.ID()
	if c.detectedIDs[id] || c.evidenceSeen[id] {
		return
	}
	c.detectedIDs[id] = true
	c.detected = append(c.detected, rec)
}

// txAtLocked resolves a committed transaction by location.
func (c *Chain) txAtLocked(loc TxLocation) *types.Transaction {
	if loc.Height < c.base || loc.Height-c.base >= uint64(len(c.blocks)) {
		return nil
	}
	b := c.blocks[loc.Height-c.base]
	if loc.TxIndex < 0 || loc.TxIndex >= len(b.Txs) {
		return nil
	}
	return &b.Txs[loc.TxIndex]
}

// --- public accessors ---

// IsBanned reports whether committed evidence names addr an offender.
func (c *Chain) IsBanned(addr gcrypto.Address) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.banned[addr]
	return ok
}

// BannedEntry pairs an expelled offender with the evidence record that
// convicted it.
type BannedEntry struct {
	Address  gcrypto.Address
	Evidence gcrypto.Hash
}

// Banned returns the dynamic blacklist sorted by address.
func (c *Chain) Banned() []BannedEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]BannedEntry, 0, len(c.banned))
	for a, id := range c.banned {
		out = append(out, BannedEntry{Address: a, Evidence: id})
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].Address[:], out[j].Address[:]) < 0
	})
	return out
}

// HasEvidence reports whether a record with this ID is already
// committed on-chain.
func (c *Chain) HasEvidence(id gcrypto.Hash) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.evidenceSeen[id]
}

// EvidenceCount returns how many distinct evidence records have been
// committed.
func (c *Chain) EvidenceCount() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.evidenceCnt
}

// ForkCount returns how many conflicting blocks were presented for
// committed heights, including ones the bounded evidence slice dropped.
func (c *Chain) ForkCount() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.forkCount
}

// DetectedEvidence returns chain-detected records starting at cursor
// `from`, plus the new cursor. The era layer polls it and submits the
// records as evidence transactions; the cursor keeps each caller from
// re-reading records it has already handled.
func (c *Chain) DetectedEvidence(from int) ([]*evidence.Record, int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if from < 0 {
		from = 0
	}
	if from >= len(c.detected) {
		return nil, len(c.detected)
	}
	out := make([]*evidence.Record, len(c.detected)-from)
	copy(out, c.detected[from:])
	return out, len(c.detected)
}
