package pbft

import (
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// TxRejected is the admission-control reply to a Request: the receiving
// node refused the transaction and tells the submitter why and when a
// retry is worth attempting. The envelope seal authenticates the
// rejecting node, so a client can distinguish a genuine back-off signal
// from an attacker trying to silence it.
type TxRejected struct {
	// TxID is the digest of the rejected transaction.
	TxID gcrypto.Hash
	// Reason classifies the rejection.
	Reason types.RejectReason
	// RetryAfter hints how long the submitter should wait before
	// retrying. Zero means "use your own backoff".
	RetryAfter time.Duration
}

// Kind implements consensus.Payload.
func (*TxRejected) Kind() consensus.MsgKind { return consensus.KindTxReject }

// Canonical states the payload's format.
func (m *TxRejected) Canonical(c codec.Coder) {
	c.Raw(m.TxID[:])
	codec.Uint8(c, &m.Reason)
	codec.Int64(c, &m.RetryAfter)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *TxRejected) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *TxRejected) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }
