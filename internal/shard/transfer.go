package shard

import (
	"errors"
	"fmt"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

// Transfer is the TxTransferLock payload: a cross-region value move
// initiated in the source region. Committing the lock in the source
// chain mints a Receipt; the value only materialises in the
// destination once the anchor committee has committed a source
// checkpoint covering that receipt.
type Transfer struct {
	// Source and Dest are region prefixes (geohash cells).
	Source string
	Dest   string
	// Recipient is credited Amount in the destination region's ledger.
	Recipient gcrypto.Address
	Amount    uint64
}

const transferTag = "gpbft/shard/transfer/v1"

// Validate checks the transfer's structure.
func (t *Transfer) Validate() error {
	if !geo.Valid(t.Source) || !geo.Valid(t.Dest) {
		return errors.New("shard: transfer with invalid region prefix")
	}
	if t.Source == t.Dest {
		return errors.New("shard: transfer source equals destination")
	}
	if len(t.Source) != len(t.Dest) {
		return errors.New("shard: transfer region prefixes of unequal precision")
	}
	if t.Recipient.IsZero() {
		return errors.New("shard: transfer to zero recipient")
	}
	if t.Amount == 0 {
		return errors.New("shard: zero-amount transfer")
	}
	return nil
}

// MarshalCanonical implements codec.Marshaler.
func (t *Transfer) MarshalCanonical(w *codec.Writer) {
	w.String(transferTag)
	w.String(t.Source)
	w.String(t.Dest)
	w.Raw(t.Recipient[:])
	w.Uint64(t.Amount)
}

// UnmarshalCanonical decodes a transfer.
func (t *Transfer) UnmarshalCanonical(r *codec.Reader) error {
	if tag := r.ReadString(); r.Err() == nil && tag != transferTag {
		return fmt.Errorf("shard: bad transfer tag %q", tag)
	}
	t.Source = r.ReadString()
	t.Dest = r.ReadString()
	r.RawInto(t.Recipient[:])
	t.Amount = r.Uint64()
	return r.Err()
}

// EncodeTransfer serializes a transfer payload.
func EncodeTransfer(t *Transfer) []byte { return codec.Encode(t) }

// DecodeTransfer parses and validates a transfer payload.
func DecodeTransfer(b []byte) (*Transfer, error) {
	r := codec.NewReader(b)
	var t Transfer
	if err := t.UnmarshalCanonical(r); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Receipt is the committed evidence of a lock: minted by the source
// chain when a TxTransferLock commits, carried (in full) inside the
// next RegionCheckpoint, and replayed to the destination region as a
// TxTransferApply payload. Its ID is the lock transaction's ID, which
// is what makes destination application idempotent: however many
// apply transactions race in (delegate failover retries the path),
// the destination ledger credits each receipt ID exactly once.
type Receipt struct {
	// ID is the source-region lock transaction ID.
	ID gcrypto.Hash
	// Source and Dest are the region prefixes of the transfer.
	Source string
	Dest   string
	// Recipient and Amount mirror the locked transfer.
	Recipient gcrypto.Address
	Amount    uint64
	// LockHeight is the source-chain height that committed the lock —
	// a receipt is anchored once a checkpoint at or above this height
	// commits on the anchor chain.
	LockHeight uint64
}

const receiptTag = "gpbft/shard/receipt/v1"

// MinReceiptSize is the length of the shortest receipt encoding: its
// tag, ID, two empty regions, recipient, amount and lock height.
const MinReceiptSize = 1 + len(receiptTag) + len(gcrypto.Hash{}) + 2 + gcrypto.AddressSize + 16

// Validate checks the receipt's structure.
func (rc *Receipt) Validate() error {
	if rc.ID.IsZero() {
		return errors.New("shard: receipt with zero lock ID")
	}
	if !geo.Valid(rc.Source) || !geo.Valid(rc.Dest) || rc.Source == rc.Dest {
		return errors.New("shard: receipt with invalid region prefixes")
	}
	if rc.Recipient.IsZero() || rc.Amount == 0 {
		return errors.New("shard: receipt without recipient or amount")
	}
	if rc.LockHeight == 0 {
		return errors.New("shard: receipt with zero lock height")
	}
	return nil
}

// MarshalCanonical implements codec.Marshaler.
func (rc *Receipt) MarshalCanonical(w *codec.Writer) {
	w.String(receiptTag)
	w.Raw(rc.ID[:])
	w.String(rc.Source)
	w.String(rc.Dest)
	w.Raw(rc.Recipient[:])
	w.Uint64(rc.Amount)
	w.Uint64(rc.LockHeight)
}

// UnmarshalCanonical decodes a receipt.
func (rc *Receipt) UnmarshalCanonical(r *codec.Reader) error {
	if tag := r.ReadString(); r.Err() == nil && tag != receiptTag {
		return fmt.Errorf("shard: bad receipt tag %q", tag)
	}
	r.RawInto(rc.ID[:])
	rc.Source = r.ReadString()
	rc.Dest = r.ReadString()
	r.RawInto(rc.Recipient[:])
	rc.Amount = r.Uint64()
	rc.LockHeight = r.Uint64()
	return r.Err()
}

// EncodeReceipt serializes a receipt payload.
func EncodeReceipt(rc *Receipt) []byte { return codec.Encode(rc) }

// DecodeReceipt parses and validates a receipt payload.
func DecodeReceipt(b []byte) (*Receipt, error) {
	r := codec.NewReader(b)
	var rc Receipt
	if err := rc.UnmarshalCanonical(r); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	return &rc, nil
}
