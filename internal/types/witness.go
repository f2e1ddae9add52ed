package types

import (
	"errors"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// WitnessStatement is a peer attestation about another device's
// claimed location — the supervision mechanism of the paper's threat
// model ("all IoT devices ... are worked within a small physical area.
// Nodes can monitor and supervise each other, and check geographic
// information accordingly") and Sybil defence ("if there is no device
// in a specific position and geographic information reporting, it can
// be recognized as fake").
//
// A witness near the claimed cell either confirms (Seen) or disputes
// (!Seen) that the subject is physically present. Statements travel as
// the payload of a TxWitness transaction; the transaction's own Geo
// info locates the witness itself, so a statement is only credible
// from a witness that is actually nearby.
type WitnessStatement struct {
	Subject gcrypto.Address
	// Geohash is the CSC cell the subject claimed.
	Geohash string
	// Seen reports whether the witness observed the subject there.
	Seen bool
}

// ErrWitnessPayload is returned for malformed witness payloads.
var ErrWitnessPayload = errors.New("types: malformed witness statement payload")

// Canonical states the statement's format.
func (s *WitnessStatement) Canonical(c codec.Coder) {
	c.Tag("gpbft/witness/v1", ErrWitnessPayload)
	c.Raw(s.Subject[:])
	c.String(&s.Geohash)
	c.Bool(&s.Seen)
}

// EncodeWitnessStatement returns the payload bytes for a TxWitness.
func EncodeWitnessStatement(s *WitnessStatement) []byte { return codec.Marshal(s) }

// DecodeWitnessStatement parses a TxWitness payload.
func DecodeWitnessStatement(b []byte) (*WitnessStatement, error) {
	return codec.Unmarshal[WitnessStatement](b)
}
