package shard

import (
	"errors"
	"fmt"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

// RegionCheckpoint is the TxRegionCheckpoint payload committed on the
// anchor chain: a region delegate's attestation of its region chain's
// head. Authenticity comes from the carrying transaction's signature —
// the anchor ledger only accepts checkpoint transactions signed by an
// anchor-committee member, and each delegate is an endorser elected
// from its region — so no inner signature is needed.
//
// Receipts are carried in full (not as hashes): once the checkpoint
// commits, destination regions can construct their apply transactions
// from anchor-chain content alone, with no cross-region chain reads.
type RegionCheckpoint struct {
	// Region is the checkpointed region's prefix.
	Region string
	// Era and Height identify the region chain position attested.
	Era    uint64
	Height uint64
	// Root is the region chain's head block hash at Height. Two
	// committed checkpoints for one region at the same height with
	// different roots are a cross-region fork proof; the anchor ledger
	// refuses to commit the second.
	Root gcrypto.Hash
	// Receipts are the outbound transfer receipts minted since the
	// region's previous anchored height.
	Receipts []Receipt
}

const checkpointTag = "gpbft/shard/checkpoint/v1"

// maxCheckpointReceipts bounds one checkpoint's receipt list (a
// decode-time guard against resource-exhaustion payloads).
const maxCheckpointReceipts = 1 << 16

// Validate checks the checkpoint's structure.
func (cp *RegionCheckpoint) Validate() error {
	if !geo.Valid(cp.Region) {
		return fmt.Errorf("shard: checkpoint with invalid region %q", cp.Region)
	}
	if cp.Height == 0 {
		return errors.New("shard: checkpoint at height zero")
	}
	if cp.Root.IsZero() {
		return errors.New("shard: checkpoint with zero root")
	}
	for i := range cp.Receipts {
		rc := &cp.Receipts[i]
		if err := rc.Validate(); err != nil {
			return fmt.Errorf("shard: checkpoint receipt %d: %w", i, err)
		}
		if rc.Source != cp.Region {
			return fmt.Errorf("shard: checkpoint receipt %d from foreign region %q", i, rc.Source)
		}
		if rc.LockHeight > cp.Height {
			return fmt.Errorf("shard: checkpoint receipt %d locked above checkpoint height", i)
		}
	}
	return nil
}

var errCheckpointTag = errors.New("shard: bad checkpoint tag")

// Canonical states the checkpoint's format. A decode refuses a receipt
// count above maxCheckpointReceipts before allocating for it.
func (cp *RegionCheckpoint) Canonical(c codec.Coder) {
	c.Tag(checkpointTag, errCheckpointTag)
	c.String(&cp.Region)
	c.Uint64(&cp.Era)
	c.Uint64(&cp.Height)
	c.Raw(cp.Root[:])
	codec.CheckedList(c, &cp.Receipts, MinReceiptSize, func(n int) error {
		if n > maxCheckpointReceipts {
			return fmt.Errorf("shard: checkpoint with %d receipts", n)
		}
		return nil
	}, (*Receipt).Canonical)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (cp *RegionCheckpoint) MarshalCanonical(w *codec.Writer)         { cp.Canonical(w.Coder()) }
func (cp *RegionCheckpoint) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, cp) }

// EncodeCheckpoint serializes a checkpoint payload.
func EncodeCheckpoint(cp *RegionCheckpoint) []byte { return codec.Marshal(cp) }

// DecodeCheckpoint parses and validates a checkpoint payload.
func DecodeCheckpoint(b []byte) (*RegionCheckpoint, error) {
	return validated(codec.Unmarshal[RegionCheckpoint](b))
}
