// Package types defines the chain data model: transactions (normal
// data, periodic location reports, and the protocol's own kinds),
// blocks, headers, and commit certificates, together with their
// canonical encodings, digests, and signature checks.
//
// Paper Section III-B2: "There are two kinds of transactions contained
// in our system, normal transactions and configuration transactions...
// both normal and configuration transactions carry the geographic
// information at the end of the transaction body." Here the era
// boundary is a rule on block time and the committee change is derived
// from committed state, so no configuration transaction exists (its
// kind number is retired). We additionally model the periodic location
// uploads of Section III-B3 as a payload-free transaction type so that
// the election table can be fed even by idle devices.
package types

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

// TxType discriminates the transaction kinds of Section III-B2.
type TxType uint8

// Transaction kinds.
const (
	// TxNormal changes application ledger state (sensor data, payments).
	TxNormal TxType = iota
	// txRetiredConfig was the configuration transaction that carried an
	// era switch. The chain derives the switch at the era's boundary block
	// now (DESIGN.md 5b); Verify refuses the number, and the kinds after
	// it keep theirs.
	txRetiredConfig
	// TxLocationReport is a periodic location upload with no payload.
	TxLocationReport
	// TxWitness carries a WitnessStatement: a peer attestation that a
	// device is (or is not) physically present at its claimed cell.
	TxWitness
	// TxEvidence carries an evidence.Record: a self-verifying proof of
	// endorser misbehavior (double-sign, Sybil pair, location spoof).
	// Committed evidence feeds the chain's dynamic blacklist.
	TxEvidence
	// TxTransferLock carries a shard.Transfer: the first phase of a
	// cross-region transfer, committed in the source region. Its commit
	// mints a receipt keyed by this transaction's ID.
	TxTransferLock
	// TxTransferApply carries a shard.Receipt: the second phase,
	// committed in the destination region once the anchor committee has
	// committed a source checkpoint covering the receipt. Application is
	// idempotent per receipt ID, which is what makes the two-phase path
	// exactly-once under delegate failover.
	TxTransferApply
	// TxRegionCheckpoint carries a shard.RegionCheckpoint: a region
	// delegate's attestation of its region chain's head, committed on
	// the anchor chain. Only current endorsers (of the anchor chain) may
	// send it.
	TxRegionCheckpoint
)

// String names the transaction type.
func (t TxType) String() string {
	switch t {
	case TxNormal:
		return "normal"
	case TxLocationReport:
		return "location-report"
	case TxWitness:
		return "witness"
	case TxEvidence:
		return "evidence"
	case TxTransferLock:
		return "transfer-lock"
	case TxTransferApply:
		return "transfer-apply"
	case TxRegionCheckpoint:
		return "region-checkpoint"
	default:
		return fmt.Sprintf("txtype(%d)", uint8(t))
	}
}

// Valid reports whether t is a known, unretired type.
func (t TxType) Valid() bool { return t <= TxRegionCheckpoint && t != txRetiredConfig }

// Control reports whether t is protocol-critical traffic rather than
// data: evidence, the location and witness
// reports elections run on, and the cross-region plumbing
// (delegate-submitted applies and checkpoints, which must not starve
// behind data traffic or anchored transfers stall region-wide). The
// mempool serves it first and a primary never holds it back.
func (t TxType) Control() bool {
	switch t {
	case TxEvidence, TxWitness, TxLocationReport, TxTransferApply, TxRegionCheckpoint:
		return true
	default:
		return false
	}
}

// RejectReason explains why admission control refused a transaction.
// It travels inside the signed TxRejected reply so clients can tell a
// transient condition (back off and retry) from a hard one.
type RejectReason uint8

// Admission rejection reasons.
const (
	// RejectNone is the zero value; never sent on the wire.
	RejectNone RejectReason = iota
	// RejectRateLimit: the sender identity exceeded its token-bucket
	// rate. Retry after the hinted delay.
	RejectRateLimit
	// RejectShed: the node is overloaded and is load-shedding this
	// transaction's priority lane. Retry after the hinted delay.
	RejectShed
	// RejectPoolFull: the mempool is at capacity and the transaction
	// lost the eviction contest (or its sender is the heaviest
	// identity). Retry after the hinted delay.
	RejectPoolFull
)

// String names the rejection reason.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "none"
	case RejectRateLimit:
		return "rate-limit"
	case RejectShed:
		return "shed"
	case RejectPoolFull:
		return "pool-full"
	default:
		return fmt.Sprintf("reject(%d)", uint8(r))
	}
}

// GeoInfo is the geographic information carried "at the end of the
// transaction body": <longitude, latitude, timestamp>.
type GeoInfo struct {
	Location  geo.Point
	Timestamp time.Time
}

// Canonical states the geo info's format.
func (g *GeoInfo) Canonical(c codec.Coder) {
	c.Float64(&g.Location.Lng)
	c.Float64(&g.Location.Lat)
	c.Time(&g.Timestamp)
}

// MarshalCanonical appends the canonical encoding of the geo info.
func (g GeoInfo) MarshalCanonical(w *codec.Writer) { g.Canonical(w.Coder()) }

// Transaction is a signed chain transaction.
type Transaction struct {
	Type      TxType
	Nonce     uint64
	Sender    gcrypto.Address
	SenderPub []byte // ed25519 public key of the sender
	Payload   []byte // application data; empty for location reports
	Fee       uint64 // transaction fee funding the incentive mechanism
	Geo       GeoInfo
	Signature []byte

	// id and leaf are the two digests of a transaction whose bytes are
	// fixed: the ID over the signed content, and the Merkle leaf hash of
	// the wire encoding. A decode and Sealed set them; both
	// are zero on a literal or a Sign'd transaction, which then hashes
	// on every call. A transaction carrying them is never mutated
	// (DESIGN.md §5q).
	id, leaf gcrypto.Hash
}

// Errors returned by transaction validation.
var (
	ErrTxType        = errors.New("types: unknown transaction type")
	ErrTxRetired     = errors.New("types: transaction of a retired kind")
	ErrTxNoSender    = errors.New("types: transaction has zero sender")
	ErrTxSignature   = errors.New("types: transaction signature invalid")
	ErrTxGeo         = errors.New("types: transaction geographic information invalid")
	ErrTxPayload     = errors.New("types: transaction payload invalid for type")
	ErrTxNoTimestamp = errors.New("types: transaction has zero geo timestamp")
)

// signingBytes is the canonical encoding covered by the signature.
func (tx *Transaction) signingBytes() []byte {
	// The domain string, type, nonce, sender, fee and geo info take 86
	// bytes, the payload's length prefix at most ten more.
	w := codec.NewWriter(96 + len(tx.Payload))
	w.String("gpbft/tx/v1") // domain separation
	w.Uint8(uint8(tx.Type))
	w.Uint64(tx.Nonce)
	w.Raw(tx.Sender[:])
	w.WriteBytes(tx.Payload)
	w.Uint64(tx.Fee)
	tx.Geo.MarshalCanonical(w)
	return w.Bytes()
}

// ID returns the transaction digest (over the signed content, so two
// transactions with the same ID are the same transaction). A decoded or
// sealed transaction returns the digest it carries; any other hashes
// its fields.
func (tx *Transaction) ID() gcrypto.Hash {
	if !tx.id.IsZero() {
		return tx.id
	}
	return gcrypto.HashBytes(tx.signingBytes())
}

// leafHash returns the transaction's Merkle leaf digest,
// gcrypto.LeafHash(EncodeTx(tx)): it covers the whole wire encoding,
// key and signature included. Carried like ID.
func (tx *Transaction) leafHash() gcrypto.Hash {
	if !tx.leaf.IsZero() {
		return tx.leaf
	}
	return gcrypto.LeafHash(EncodeTx(tx))
}

// Sealed returns tx with both digests set: tx itself when it already
// carries them, else a copy. The pool holds sealed transactions, so the
// blocks built from it hash nothing a second time. The caller must not
// mutate tx afterwards.
func (tx *Transaction) Sealed() *Transaction {
	if !tx.id.IsZero() {
		return tx
	}
	c := *tx
	c.id, c.leaf = tx.ID(), tx.leafHash()
	return &c
}

// Sign fills Sender, SenderPub and Signature using kp. It clears the
// digests: the transaction it signs is new content.
func (tx *Transaction) Sign(kp *gcrypto.KeyPair) {
	tx.id, tx.leaf = gcrypto.Hash{}, gcrypto.Hash{}
	tx.Sender = kp.Address()
	tx.SenderPub = append([]byte(nil), kp.Public()...)
	tx.Signature = kp.Sign(tx.signingBytes())
}

// Verify checks structural validity and the signature.
func (tx *Transaction) Verify() error {
	if err := tx.verifyStructure(); err != nil {
		return err
	}
	return tx.verifySignature()
}

// verifyStructure runs every check Verify performs before the
// signature, in the same order.
func (tx *Transaction) verifyStructure() error {
	if tx.Type == txRetiredConfig {
		return ErrTxRetired
	}
	if !tx.Type.Valid() {
		return ErrTxType
	}
	if tx.Sender.IsZero() {
		return ErrTxNoSender
	}
	if err := tx.Geo.Location.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrTxGeo, err)
	}
	if tx.Geo.Timestamp.IsZero() {
		return ErrTxNoTimestamp
	}
	if tx.Type == TxLocationReport && len(tx.Payload) != 0 {
		return fmt.Errorf("%w: location report must have empty payload", ErrTxPayload)
	}
	if tx.Type == TxWitness {
		if _, err := DecodeWitnessStatement(tx.Payload); err != nil {
			return fmt.Errorf("%w: %v", ErrTxPayload, err)
		}
	}
	// TxEvidence payloads decode and verify in the ledger layer (the
	// evidence package sits above types); here only non-emptiness is
	// structural.
	if tx.Type == TxEvidence && len(tx.Payload) == 0 {
		return fmt.Errorf("%w: evidence transaction must carry a record", ErrTxPayload)
	}
	// Shard payloads (transfer locks/applies, region checkpoints) decode
	// and validate in the ledger layer for the same reason; only
	// non-emptiness is structural here.
	if (tx.Type == TxTransferLock || tx.Type == TxTransferApply || tx.Type == TxRegionCheckpoint) && len(tx.Payload) == 0 {
		return fmt.Errorf("%w: %s transaction must carry a payload", ErrTxPayload, tx.Type)
	}
	if len(tx.SenderPub) != ed25519.PublicKeySize {
		return ErrTxSignature
	}
	return nil
}

// verifySignature runs the ed25519 check, assuming structure passed.
func (tx *Transaction) verifySignature() error {
	if err := gcrypto.Verify(tx.SenderPub, tx.Sender, tx.signingBytes(), tx.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrTxSignature, err)
	}
	return nil
}

// wrapTxSigError maps a raw gcrypto verification failure to the exact
// error Verify would return for it.
func wrapTxSigError(err error) error {
	return fmt.Errorf("%w: %v", ErrTxSignature, err)
}

// Report converts the transaction's geographic information into a geo
// report attributed to the sender, ready for the election table.
func (tx *Transaction) Report() geo.Report {
	return geo.Report{
		Location:  tx.Geo.Location,
		Timestamp: tx.Geo.Timestamp,
		Address:   tx.Sender.String(),
	}
}

// Canonical states the wire format, signature included. A decode also
// sets both digests: the leaf from the bytes it consumed, which are
// EncodeTx of the result since decoding is canonical.
func (tx *Transaction) Canonical(c codec.Coder) {
	start := c.Offset()
	codec.Uint8(c, &tx.Type)
	c.Uint64(&tx.Nonce)
	c.Raw(tx.Sender[:])
	c.Bytes(&tx.SenderPub)
	c.Bytes(&tx.Payload)
	c.Uint64(&tx.Fee)
	tx.Geo.Canonical(c)
	c.Bytes(&tx.Signature)
	if c.Decoding() && c.Err() == nil {
		tx.id, tx.leaf = gcrypto.HashBytes(tx.signingBytes()), gcrypto.LeafHash(c.Since(start))
	}
}

// MinTxSize is the length of the shortest transaction encoding: a
// decoder refuses a count of transactions the bytes left cannot hold.
const MinTxSize = 64

// EncodeTx returns the wire bytes of tx.
func EncodeTx(tx *Transaction) []byte { return codec.Marshal(tx) }

// DecodeTx parses wire bytes into a transaction, requiring full
// consumption of the buffer.
func DecodeTx(b []byte) (*Transaction, error) { return codec.Unmarshal[Transaction](b) }

// EndorserInfo identifies an endorser: address, public key, and its
// authenticated CSC cell.
type EndorserInfo struct {
	Address gcrypto.Address
	PubKey  []byte
	Geohash string
}

// Canonical states the endorser's format.
func (e *EndorserInfo) Canonical(c codec.Coder) {
	c.Raw(e.Address[:])
	c.Bytes(&e.PubKey)
	c.String(&e.Geohash)
}

// MinEndorserInfoSize is the length of the shortest endorser encoding:
// an address, then a key and a cell of at least their length bytes.
const MinEndorserInfoSize = gcrypto.AddressSize + 2
