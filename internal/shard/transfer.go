package shard

import (
	"errors"

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

var (
	errTransferTag = errors.New("shard: bad transfer tag")
	errReceiptTag  = errors.New("shard: bad receipt tag")
)

// Canonical states the transfer's format.
func (t *Transfer) Canonical(c codec.Coder) {
	c.Tag(transferTag, errTransferTag)
	c.String(&t.Source)
	c.String(&t.Dest)
	c.Raw(t.Recipient[:])
	c.Uint64(&t.Amount)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (t *Transfer) MarshalCanonical(w *codec.Writer)         { t.Canonical(w.Coder()) }
func (t *Transfer) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, t) }

// EncodeTransfer serializes a transfer payload.
func EncodeTransfer(t *Transfer) []byte { return codec.Marshal(t) }

// DecodeTransfer parses and validates a transfer payload.
func DecodeTransfer(b []byte) (*Transfer, error) { return validated(codec.Unmarshal[Transfer](b)) }

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

// Canonical states the receipt's format.
func (rc *Receipt) Canonical(c codec.Coder) {
	c.Tag(receiptTag, errReceiptTag)
	c.Raw(rc.ID[:])
	c.String(&rc.Source)
	c.String(&rc.Dest)
	c.Raw(rc.Recipient[:])
	c.Uint64(&rc.Amount)
	c.Uint64(&rc.LockHeight)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (rc *Receipt) MarshalCanonical(w *codec.Writer)         { rc.Canonical(w.Coder()) }
func (rc *Receipt) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, rc) }

// EncodeReceipt serializes a receipt payload.
func EncodeReceipt(rc *Receipt) []byte { return codec.Marshal(rc) }

// DecodeReceipt parses and validates a receipt payload.
func DecodeReceipt(b []byte) (*Receipt, error) { return validated(codec.Unmarshal[Receipt](b)) }

// validated returns a decoded payload that also passes its Validate, or
// the first error.
func validated[T any, P interface {
	*T
	Validate() error
}](v P, err error) (P, error) {
	if err == nil {
		err = v.Validate()
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}
