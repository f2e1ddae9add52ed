package shard

import (
	"bytes"
	"fmt"
	"sort"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// ErrAnchorFork is returned when a checkpoint attests a different root
// than one already anchored for the same region and height — the
// cross-region fork the hierarchy exists to make impossible. The
// anchor ledger refuses to commit blocks carrying such a checkpoint,
// so at most one root per (region, height) can ever anchor.
var ErrAnchorFork = fmt.Errorf("shard: conflicting checkpoint root (cross-region fork)")

// CheckpointPoint is the anchored position of one region.
type CheckpointPoint struct {
	Era    uint64
	Height uint64
	Root   gcrypto.Hash
}

// anchorHistoryDepth bounds the retained per-region (height → root)
// rows the fork check consults. Checkpoints older than the window are
// accepted as no-ops — the live fork surface is the recent heights.
const anchorHistoryDepth = 64

// AnchorIndex is the anchor chain's derived state: the latest anchored
// checkpoint per region, a bounded per-region root history for fork
// detection, and the set of transfer receipts covered by committed
// checkpoints. It is deterministic chain content — every anchor node
// derives an identical index from identical blocks — and is carried in
// the canonical ChainState so restored nodes keep the fork surface.
type AnchorIndex struct {
	latest  map[string]CheckpointPoint
	history map[string]map[uint64]gcrypto.Hash
	// receipts maps covered receipt IDs to their full receipts; order
	// preserves first-anchored sequence for deterministic iteration.
	receipts map[gcrypto.Hash]Receipt
	order    []gcrypto.Hash
}

// NewAnchorIndex returns an empty index.
func NewAnchorIndex() *AnchorIndex {
	return &AnchorIndex{
		latest:   make(map[string]CheckpointPoint),
		history:  make(map[string]map[uint64]gcrypto.Hash),
		receipts: make(map[gcrypto.Hash]Receipt),
	}
}

// Check reports whether the checkpoint is consistent with everything
// anchored so far, without mutating the index. A conflicting root at a
// retained height returns ErrAnchorFork.
func (a *AnchorIndex) Check(cp *RegionCheckpoint) error {
	if h := a.history[cp.Region]; h != nil {
		if root, ok := h[cp.Height]; ok && root != cp.Root {
			return fmt.Errorf("%w: region %s height %d", ErrAnchorFork, cp.Region, cp.Height)
		}
	}
	return nil
}

// RootAt returns the retained anchored root for (region, height), if
// any — what a conflicting checkpoint would be diverging from.
func (a *AnchorIndex) RootAt(region string, height uint64) (gcrypto.Hash, bool) {
	h := a.history[region]
	if h == nil {
		return gcrypto.Hash{}, false
	}
	root, ok := h[height]
	return root, ok
}

// belowWindowLocked reports whether height falls below the retained
// fork-detection window for a region: the window is full and every
// retained row is newer. Such a height's original row was pruned, so a
// conflicting late root could no longer be detected — the caller must
// not record it. The rule is a pure function of retained state, so
// snapshot-restored nodes classify identically.
func (a *AnchorIndex) belowWindow(region string, height uint64) bool {
	h := a.history[region]
	if len(h) < anchorHistoryDepth {
		return false
	}
	for k := range h {
		if k <= height {
			return false
		}
	}
	return true
}

// Apply folds a committed checkpoint into the index. Conflicts return
// ErrAnchorFork and leave the index unchanged; stale checkpoints
// (height at or below the latest, consistent roots) only merge any
// receipts not yet covered. A checkpoint below the retained window —
// whose original row was already pruned, so its root can no longer be
// adjudicated — records nothing, but still merges receipts: receipt
// coverage is deduplicated by ID and never forks.
func (a *AnchorIndex) Apply(cp *RegionCheckpoint) error {
	if err := a.Check(cp); err != nil {
		return err
	}
	if !a.belowWindow(cp.Region, cp.Height) {
		h := a.history[cp.Region]
		if h == nil {
			h = make(map[uint64]gcrypto.Hash, anchorHistoryDepth)
			a.history[cp.Region] = h
		}
		h[cp.Height] = cp.Root
		// Prune the oldest rows beyond the retention window.
		if len(h) > anchorHistoryDepth {
			heights := make([]uint64, 0, len(h))
			for k := range h {
				heights = append(heights, k)
			}
			sort.Slice(heights, func(i, j int) bool { return heights[i] < heights[j] })
			for _, k := range heights[:len(h)-anchorHistoryDepth] {
				delete(h, k)
			}
		}
		if cur, ok := a.latest[cp.Region]; !ok || cp.Height > cur.Height {
			a.latest[cp.Region] = CheckpointPoint{Era: cp.Era, Height: cp.Height, Root: cp.Root}
		}
	}
	for i := range cp.Receipts {
		rc := cp.Receipts[i]
		if _, seen := a.receipts[rc.ID]; seen {
			continue
		}
		a.receipts[rc.ID] = rc
		a.order = append(a.order, rc.ID)
	}
	return nil
}

// Latest returns the newest anchored checkpoint for a region.
func (a *AnchorIndex) Latest(region string) (CheckpointPoint, bool) {
	pt, ok := a.latest[region]
	return pt, ok
}

// Regions returns the anchored region prefixes, sorted.
func (a *AnchorIndex) Regions() []string {
	out := make([]string, 0, len(a.latest))
	for r := range a.latest {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Covered reports whether a receipt ID is covered by a committed
// checkpoint (and is therefore safe to apply in its destination).
func (a *AnchorIndex) Covered(id gcrypto.Hash) bool {
	_, ok := a.receipts[id]
	return ok
}

// Receipts returns every covered receipt in first-anchored order.
func (a *AnchorIndex) Receipts() []Receipt {
	out := make([]Receipt, 0, len(a.order))
	for _, id := range a.order {
		out = append(out, a.receipts[id])
	}
	return out
}

// AnchorRecord is one retained (region, height, root) row, the
// canonical-export form of the index's fork-detection history.
type AnchorRecord struct {
	Region string
	Era    uint64
	Height uint64
	Root   gcrypto.Hash
}

// Canonical states the record's format.
func (a *AnchorRecord) Canonical(c codec.Coder) {
	c.String(&a.Region)
	c.Uint64(&a.Era)
	c.Uint64(&a.Height)
	c.Raw(a.Root[:])
}

// Export flattens the index deterministically: history rows sorted by
// (region, height) with the latest row carrying its era, and covered
// receipts in first-anchored order.
func (a *AnchorIndex) Export() ([]AnchorRecord, []Receipt) {
	recs := make([]AnchorRecord, 0, len(a.history)*4)
	for region, h := range a.history {
		era := uint64(0)
		latest := a.latest[region]
		for height, root := range h {
			if height == latest.Height {
				era = latest.Era
			} else {
				era = 0
			}
			recs = append(recs, AnchorRecord{Region: region, Era: era, Height: height, Root: root})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Region != recs[j].Region {
			return recs[i].Region < recs[j].Region
		}
		return recs[i].Height < recs[j].Height
	})
	return recs, a.Receipts()
}

// RestoreAnchorIndex rebuilds an index from its exported form.
func RestoreAnchorIndex(recs []AnchorRecord, receipts []Receipt) *AnchorIndex {
	a := NewAnchorIndex()
	for _, r := range recs {
		h := a.history[r.Region]
		if h == nil {
			h = make(map[uint64]gcrypto.Hash, anchorHistoryDepth)
			a.history[r.Region] = h
		}
		h[r.Height] = r.Root
		if cur, ok := a.latest[r.Region]; !ok || r.Height > cur.Height {
			a.latest[r.Region] = CheckpointPoint{Era: r.Era, Height: r.Height, Root: r.Root}
		}
	}
	for _, rc := range receipts {
		if _, seen := a.receipts[rc.ID]; seen {
			continue
		}
		a.receipts[rc.ID] = rc
		a.order = append(a.order, rc.ID)
	}
	return a
}

// Equal reports whether two indexes carry identical anchored state —
// the cross-anchor-node agreement check chaos schedules assert.
func (a *AnchorIndex) Equal(b *AnchorIndex) bool {
	ar, arc := a.Export()
	br, brc := b.Export()
	if len(ar) != len(br) || len(arc) != len(brc) {
		return false
	}
	for i := range ar {
		if ar[i] != br[i] {
			return false
		}
	}
	for i := range arc {
		if !bytes.Equal(arc[i].ID[:], brc[i].ID[:]) || arc[i] != brc[i] {
			return false
		}
	}
	return true
}
