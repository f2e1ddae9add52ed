// Package consensus defines the machinery shared by the PBFT baseline
// and G-PBFT: the signed message envelope, the action list an engine
// emits, the event-driven engine interface that both the discrete-event
// simulator and the real-time runner drive, and committee membership
// arithmetic (f, quorums, primary rotation).
//
// Engines are pure state machines: they never spawn goroutines, read
// wall clocks, or touch sockets. All inputs arrive through OnEnvelope /
// OnTimer / OnRequest with an explicit timestamp, and all outputs are
// returned as Actions. This is what makes the same engine runnable both
// under the deterministic simulator and over real TCP.
package consensus

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync/atomic"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// MsgKind discriminates protocol payload types inside an envelope.
type MsgKind uint8

// Message kinds across both protocols. PBFT kinds are also used inside
// a G-PBFT era; the Era* kinds belong to the era-switch layer.
const (
	KindRequest MsgKind = iota + 1
	KindPrePrepare
	KindPrepare
	KindCommit
	KindCheckpoint
	KindViewChange
	KindNewView
	KindEraSwitch
	KindBlockSync
	// KindTxReject is an admission-control reply: a node telling a
	// submitter that its transaction was not accepted and when to retry.
	KindTxReject
	// KindRelay is a gossip relay frame: a batch of hop-counted inner
	// envelopes being epidemically forwarded on behalf of their
	// originators. The frame itself is unsealed — each inner envelope
	// carries its originator's signature, and the relayer is attributed
	// by the authenticated channel it arrived on.
	KindRelay
)

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindPrePrepare:
		return "pre-prepare"
	case KindPrepare:
		return "prepare"
	case KindCommit:
		return "commit"
	case KindCheckpoint:
		return "checkpoint"
	case KindViewChange:
		return "view-change"
	case KindNewView:
		return "new-view"
	case KindEraSwitch:
		return "era-switch"
	case KindBlockSync:
		return "block-sync"
	case KindTxReject:
		return "tx-reject"
	case KindRelay:
		return "relay"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Payload is a protocol message body with a canonical encoding.
type Payload interface {
	codec.Marshaler
	Kind() MsgKind
}

// Envelope is a signed, attributed protocol message: the paper's threat
// model lets adversaries inject their own messages but not forge or
// tamper with others', which the signature enforces.
type Envelope struct {
	MsgKind   MsgKind
	From      gcrypto.Address
	FromPub   []byte
	Body      []byte
	Signature []byte

	// wireSize caches the serialized size (an envelope is immutable
	// once sealed; broadcasts meter it once per recipient).
	wireSize int

	// verifiedSum memoizes a successful signature check: it is the
	// digest of every field the check covered, recorded at the moment
	// the ed25519 verification passed. The engines re-Open stored vote
	// envelopes on every quorum recount (O(n²) per slot at committee
	// scale); the memo collapses each recount to one cheap hash
	// comparison. Binding the memo to the content digest (rather than a
	// bare flag) means any mutation after the fact — even of an
	// in-memory struct — invalidates it, and only success is cached, so
	// accept/reject semantics stay byte-exact with the serial path.
	verified    bool
	verifiedSum gcrypto.Hash

	// relayEntries memoizes the decoded batch of a KindRelay body so
	// the pre-verify worker's decode (which also warms every inner
	// envelope's verify memo) is the one the event loop reuses. Same
	// ownership rule as the verify memo: one writer, strictly before
	// the single event loop reads.
	relayEntries []RelayEntry
	relayErr     error
	relayDone    bool
}

// Errors returned by envelope operations.
var (
	ErrEnvelopeSig  = errors.New("consensus: envelope signature invalid")
	ErrEnvelopeKind = errors.New("consensus: envelope kind mismatch")
)

func envelopeDigest(kind MsgKind, from gcrypto.Address, body []byte) []byte {
	w := codec.NewWriter(64 + len(body))
	w.String("gpbft/envelope/v1")
	w.Uint8(uint8(kind))
	w.Raw(from[:])
	w.WriteBytes(body)
	return w.Bytes()
}

// Seal encodes and signs a payload into an envelope. A locally sealed
// envelope is verified by construction.
func Seal(kp *gcrypto.KeyPair, p Payload) *Envelope {
	body := codec.Encode(p)
	e := &Envelope{
		MsgKind: p.Kind(),
		From:    kp.Address(),
		FromPub: append([]byte(nil), kp.Public()...),
		Body:    body,
	}
	e.Signature = kp.Sign(envelopeDigest(e.MsgKind, e.From, body))
	e.markVerified()
	return e
}

// verifySum digests every field Verify covers (including the public
// key and signature, which envelopeDigest omits), so a memoized
// verdict can be tied to the exact bytes that were checked.
func (e *Envelope) verifySum() gcrypto.Hash {
	w := codec.NewWriter(96 + len(e.Body))
	w.Uint8(uint8(e.MsgKind))
	w.Raw(e.From[:])
	w.WriteBytes(e.FromPub)
	w.WriteBytes(e.Body)
	w.WriteBytes(e.Signature)
	return gcrypto.HashBytes(w.Bytes())
}

func (e *Envelope) markVerified() {
	e.verifiedSum = e.verifySum()
	e.verified = true
}

// verifyMemo gates the success memo; the serial ablation baseline in
// gpbft-bench turns it off to reproduce seed behaviour.
var verifyMemo atomic.Bool

func init() { verifyMemo.Store(true) }

// SetVerifyMemo toggles envelope-verification memoization; returns the
// previous setting. Memoization is semantics-preserving (only success
// over immutable bytes is cached); the switch exists so benchmarks can
// measure the serial path.
func SetVerifyMemo(on bool) bool { return verifyMemo.Swap(on) }

// Verify checks the envelope signature and sender binding. A
// successful check is memoized: envelopes are immutable once sealed,
// and the single event loop that owns an envelope is the only writer.
func (e *Envelope) Verify() error {
	if e.verified && verifyMemo.Load() && e.verifiedSum == e.verifySum() {
		return nil
	}
	if len(e.FromPub) != ed25519.PublicKeySize {
		return ErrEnvelopeSig
	}
	if err := gcrypto.Verify(e.FromPub, e.From, envelopeDigest(e.MsgKind, e.From, e.Body), e.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrEnvelopeSig, err)
	}
	e.markVerified()
	return nil
}

// MarshalCanonical appends the wire encoding of the envelope.
func (e *Envelope) MarshalCanonical(w *codec.Writer) {
	w.Uint8(uint8(e.MsgKind))
	w.Raw(e.From[:])
	w.WriteBytes(e.FromPub)
	w.WriteBytes(e.Body)
	w.WriteBytes(e.Signature)
}

// UnmarshalCanonical decodes an envelope.
func (e *Envelope) UnmarshalCanonical(r *codec.Reader) error {
	e.MsgKind = MsgKind(r.Uint8())
	r.RawInto(e.From[:])
	e.FromPub = r.ReadBytes()
	e.Body = r.ReadBytes()
	e.Signature = r.ReadBytes()
	return r.Err()
}

// EncodeEnvelope returns the wire bytes of e.
func EncodeEnvelope(e *Envelope) []byte { return codec.Encode(e) }

// DecodeEnvelope parses wire bytes into an envelope.
func DecodeEnvelope(b []byte) (*Envelope, error) {
	r := codec.NewReader(b)
	var e Envelope
	if err := e.UnmarshalCanonical(r); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &e, nil
}

// WireSize returns the serialized size of the envelope in bytes; the
// simulator meters traffic with it. The value is cached: envelopes are
// immutable once sealed.
func (e *Envelope) WireSize() int {
	if e.wireSize == 0 {
		e.wireSize = len(EncodeEnvelope(e))
	}
	return e.wireSize
}

// Open verifies the envelope, checks its kind, and decodes the body
// into dst (which must match the kind's payload type).
func Open(e *Envelope, want MsgKind, dst interface {
	UnmarshalCanonical(*codec.Reader) error
}) error {
	if e.MsgKind != want {
		return ErrEnvelopeKind
	}
	if err := e.Verify(); err != nil {
		return err
	}
	r := codec.NewReader(e.Body)
	if err := dst.UnmarshalCanonical(r); err != nil {
		return err
	}
	return r.Finish()
}

// requestSealCheck restores the seed's behaviour of verifying the
// relayer's seal on request envelopes. Off by default — the payload is
// self-authenticating (see OpenUnverified) — and turned on by the
// serial ablation baseline so it measures the seed's verification
// stack, not a mixed one.
var requestSealCheck atomic.Bool

// SetRequestSealCheck toggles relayer-seal verification on request
// envelopes; returns the previous setting.
func SetRequestSealCheck(on bool) bool { return requestSealCheck.Swap(on) }

// RequestSealCheck reports whether request envelopes verify the
// relayer's seal.
func RequestSealCheck() bool { return requestSealCheck.Load() }

// OpenUnverified decodes the body without checking the envelope seal.
// On its own it is only sound for payloads that authenticate
// themselves — a relayed transaction carries its own signature over its
// full content, so the relayer's seal adds no integrity and one ed25519
// check per relay hop per receiver. A consensus vote's authenticity is
// exactly the seal: the vote handlers decode with this only to decide
// whether the vote can still count, and call Verify before anything
// decoded from it is stored or acted on (pbft.admitVote).
func OpenUnverified(e *Envelope, want MsgKind, dst interface {
	UnmarshalCanonical(*codec.Reader) error
}) error {
	if e.MsgKind != want {
		return ErrEnvelopeKind
	}
	r := codec.NewReader(e.Body)
	if err := dst.UnmarshalCanonical(r); err != nil {
		return err
	}
	return r.Finish()
}
