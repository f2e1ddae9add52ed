// Package types defines the chain data model: transactions (normal,
// configuration, and periodic location reports), blocks, headers, and
// commit certificates, together with their canonical encodings,
// digests, and signature checks.
//
// Paper Section III-B2: "There are two kinds of transactions contained
// in our system, normal transactions and configuration transactions...
// both normal and configuration transactions carry the geographic
// information at the end of the transaction body." We additionally
// model the periodic location uploads of Section III-B3 as a third,
// payload-free transaction type so that the election table can be fed
// even by idle devices.
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
	// TxConfig modifies chain configuration (endorser set changes);
	// only endorsers may propose it.
	TxConfig
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
	// send it, mirroring TxConfig.
	TxRegionCheckpoint
)

// String names the transaction type.
func (t TxType) String() string {
	switch t {
	case TxNormal:
		return "normal"
	case TxConfig:
		return "config"
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

// Valid reports whether t is a known type.
func (t TxType) Valid() bool { return t <= TxRegionCheckpoint }

// Control reports whether t is protocol-critical traffic rather than
// data: configuration changes, evidence, the location and witness
// reports elections run on, and the cross-region plumbing
// (delegate-submitted applies and checkpoints, which must not starve
// behind data traffic or anchored transfers stall region-wide). The
// mempool serves it first and a primary never holds it back.
func (t TxType) Control() bool {
	switch t {
	case TxConfig, TxEvidence, TxWitness, TxLocationReport, TxTransferApply, TxRegionCheckpoint:
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

// ValidReject reports whether r is a known, sendable reason.
func (r RejectReason) ValidReject() bool {
	return r >= RejectRateLimit && r <= RejectPoolFull
}

// GeoInfo is the geographic information carried "at the end of the
// transaction body": <longitude, latitude, timestamp>.
type GeoInfo struct {
	Location  geo.Point
	Timestamp time.Time
}

// MarshalCanonical appends the canonical encoding of the geo info.
func (g GeoInfo) MarshalCanonical(w *codec.Writer) {
	w.Float64(g.Location.Lng)
	w.Float64(g.Location.Lat)
	w.Time(g.Timestamp)
}

func (g *GeoInfo) unmarshal(r *codec.Reader) {
	g.Location.Lng = r.Float64()
	g.Location.Lat = r.Float64()
	g.Timestamp = r.Time()
}

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
}

// Errors returned by transaction validation.
var (
	ErrTxType        = errors.New("types: unknown transaction type")
	ErrTxNoSender    = errors.New("types: transaction has zero sender")
	ErrTxSignature   = errors.New("types: transaction signature invalid")
	ErrTxGeo         = errors.New("types: transaction geographic information invalid")
	ErrTxPayload     = errors.New("types: transaction payload invalid for type")
	ErrTxNoTimestamp = errors.New("types: transaction has zero geo timestamp")
)

// signingBytes is the canonical encoding covered by the signature.
func (tx *Transaction) signingBytes() []byte {
	w := codec.NewWriter(64 + len(tx.Payload))
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
// transactions with the same ID are the same transaction).
func (tx *Transaction) ID() gcrypto.Hash {
	return gcrypto.HashBytes(tx.signingBytes())
}

// Sign fills Sender, SenderPub and Signature using kp.
func (tx *Transaction) Sign(kp *gcrypto.KeyPair) {
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

// MarshalCanonical appends the full wire encoding (including signature).
func (tx *Transaction) MarshalCanonical(w *codec.Writer) {
	w.Uint8(uint8(tx.Type))
	w.Uint64(tx.Nonce)
	w.Raw(tx.Sender[:])
	w.WriteBytes(tx.SenderPub)
	w.WriteBytes(tx.Payload)
	w.Uint64(tx.Fee)
	tx.Geo.MarshalCanonical(w)
	w.WriteBytes(tx.Signature)
}

// UnmarshalCanonical decodes a transaction written by MarshalCanonical.
func (tx *Transaction) UnmarshalCanonical(r *codec.Reader) error {
	tx.Type = TxType(r.Uint8())
	tx.Nonce = r.Uint64()
	r.RawInto(tx.Sender[:])
	tx.SenderPub = r.ReadBytes()
	tx.Payload = r.ReadBytes()
	tx.Fee = r.Uint64()
	tx.Geo.unmarshal(r)
	tx.Signature = r.ReadBytes()
	return r.Err()
}

// EncodeTx returns the wire bytes of tx.
func EncodeTx(tx *Transaction) []byte { return codec.Encode(tx) }

// DecodeTx parses wire bytes into a transaction, requiring full
// consumption of the buffer.
func DecodeTx(b []byte) (*Transaction, error) {
	r := codec.NewReader(b)
	var tx Transaction
	if err := tx.UnmarshalCanonical(r); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &tx, nil
}

// ConfigChange is the payload of a TxConfig transaction: the endorser
// set delta agreed during an era switch (Section III-B2, III-E).
type ConfigChange struct {
	NewEra uint64
	Add    []EndorserInfo
	Remove []gcrypto.Address
}

// EndorserInfo identifies an endorser: address, public key, and its
// authenticated CSC cell.
type EndorserInfo struct {
	Address gcrypto.Address
	PubKey  []byte
	Geohash string
}

// MarshalCanonical appends the canonical encoding of the change set.
func (c *ConfigChange) MarshalCanonical(w *codec.Writer) {
	w.Uint64(c.NewEra)
	w.Count(len(c.Add))
	for i := range c.Add {
		w.Raw(c.Add[i].Address[:])
		w.WriteBytes(c.Add[i].PubKey)
		w.String(c.Add[i].Geohash)
	}
	w.Count(len(c.Remove))
	for i := range c.Remove {
		w.Raw(c.Remove[i][:])
	}
}

// UnmarshalCanonical decodes a change set.
func (c *ConfigChange) UnmarshalCanonical(r *codec.Reader) error {
	c.NewEra = r.Uint64()
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	c.Add = make([]EndorserInfo, n)
	for i := 0; i < n; i++ {
		r.RawInto(c.Add[i].Address[:])
		c.Add[i].PubKey = r.ReadBytes()
		c.Add[i].Geohash = r.ReadString()
	}
	m := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	c.Remove = make([]gcrypto.Address, m)
	for i := 0; i < m; i++ {
		r.RawInto(c.Remove[i][:])
	}
	return r.Err()
}

// EncodeConfigChange returns the payload bytes for a config tx.
func EncodeConfigChange(c *ConfigChange) []byte { return codec.Encode(c) }

// DecodeConfigChange parses a config tx payload.
func DecodeConfigChange(b []byte) (*ConfigChange, error) {
	r := codec.NewReader(b)
	var c ConfigChange
	if err := c.UnmarshalCanonical(r); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &c, nil
}
