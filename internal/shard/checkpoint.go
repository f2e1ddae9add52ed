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

// MarshalCanonical implements codec.Marshaler.
func (cp *RegionCheckpoint) MarshalCanonical(w *codec.Writer) {
	w.String(checkpointTag)
	w.String(cp.Region)
	w.Uint64(cp.Era)
	w.Uint64(cp.Height)
	w.Raw(cp.Root[:])
	w.Count(len(cp.Receipts))
	for i := range cp.Receipts {
		cp.Receipts[i].MarshalCanonical(w)
	}
}

// UnmarshalCanonical decodes a checkpoint.
func (cp *RegionCheckpoint) UnmarshalCanonical(r *codec.Reader) error {
	if tag := r.ReadString(); r.Err() == nil && tag != checkpointTag {
		return fmt.Errorf("shard: bad checkpoint tag %q", tag)
	}
	cp.Region = r.ReadString()
	cp.Era = r.Uint64()
	cp.Height = r.Uint64()
	r.RawInto(cp.Root[:])
	n := r.CountOf(MinReceiptSize)
	if r.Err() != nil {
		return r.Err()
	}
	if n > maxCheckpointReceipts {
		return fmt.Errorf("shard: checkpoint with %d receipts", n)
	}
	cp.Receipts = make([]Receipt, n)
	for i := 0; i < n; i++ {
		if err := cp.Receipts[i].UnmarshalCanonical(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// EncodeCheckpoint serializes a checkpoint payload.
func EncodeCheckpoint(cp *RegionCheckpoint) []byte { return codec.Encode(cp) }

// DecodeCheckpoint parses and validates a checkpoint payload.
func DecodeCheckpoint(b []byte) (*RegionCheckpoint, error) {
	r := codec.NewReader(b)
	var cp RegionCheckpoint
	if err := cp.UnmarshalCanonical(r); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}
