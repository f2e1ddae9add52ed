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
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

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
	// kindRetiredCheckpoint was the checkpoint vote. The commit
	// certificate proves a stable point now (DESIGN.md 5t); DecodeEnvelope
	// refuses the number, and the kinds after it keep theirs.
	kindRetiredCheckpoint
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
	// KindFetch asks for, or delivers, the transaction bodies of a
	// proposal.
	KindFetch
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
	case KindFetch:
		return "fetch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IntraEra reports whether k belongs to one era's PBFT instance: the
// kinds PeekEra reads an era from, whose sender is a member of that
// era's committee.
func (k MsgKind) IntraEra() bool {
	switch k {
	case KindPrePrepare, KindPrepare, KindCommit, KindViewChange, KindNewView, KindFetch:
		return true
	}
	return false
}

// byChannel reports whether k names no sender on the wire: a request or
// relay frame is attributed by the channel it arrives on (Attributed).
func (k MsgKind) byChannel() bool { return k == KindRequest || k == KindRelay }

// Payload is a protocol message body with a canonical encoding.
type Payload interface {
	codec.Marshaler
	Kind() MsgKind
}

// Envelope is a signed, attributed protocol message: the paper's threat
// model lets adversaries inject their own messages but not forge or
// tamper with others', which the signature enforces.
//
// The wire names the sender only as far as the receiver cannot work it
// out (DESIGN.md 5o). An intra-era kind carries Sender, the sender's
// position in its era's committee, and the receiver fills in From and
// FromPub with Resolve. A request or relay frame carries no sender at
// all. Every other kind carries FromPub, and From is derived from it.
// The signed bytes cover From whichever way it arrived.
type Envelope struct {
	MsgKind MsgKind
	From    gcrypto.Address
	FromPub []byte
	// Sender is the committee position an intra-era envelope names its
	// sender by; whoever seals one sets it before it is encoded.
	Sender    uint64
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

	// memo holds the decoded body of a request (its transaction) or a
	// relay frame (its batch), so the transport read loop's decode is the
	// one the event loop reuses (Decoded). Same ownership rule as the
	// verify memo: one writer, strictly before the single event loop
	// reads.
	memo    any
	memoErr error
}

// Errors returned by envelope operations.
var (
	ErrEnvelopeSig     = errors.New("consensus: envelope signature invalid")
	ErrEnvelopeKind    = errors.New("consensus: envelope kind mismatch")
	ErrEnvelopeRetired = errors.New("consensus: envelope of a retired kind")
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

// Unsealed wraps a payload that authenticates itself in an envelope
// from kp that carries no seal: receivers decode it with
// OpenUnverified, and Verify fails on it.
func Unsealed(kp *gcrypto.KeyPair, p Payload) *Envelope {
	return &Envelope{
		MsgKind: p.Kind(),
		From:    kp.Address(),
		FromPub: append([]byte(nil), kp.Public()...),
		Body:    codec.Encode(p),
	}
}

// Resolve names the sender of an intra-era envelope that came off the
// wire: the member of com at its Sender position. It reports false,
// before any signature work, when com has no such position. Other
// kinds, and envelopes that already name their key (sealed here, or
// resolved before), are left as they are.
func (e *Envelope) Resolve(com *Committee) bool {
	if !e.MsgKind.IntraEra() || e.FromPub != nil {
		return true
	}
	if e.Sender >= uint64(com.Size()) {
		return false
	}
	m := com.Member(int(e.Sender))
	e.From, e.FromPub = m.Address, m.PubKey
	return true
}

// Attributed returns e as received over a channel from `from`. A
// request or relay frame names no sender on the wire and takes the
// channel's identity, on a copy: a delivered envelope may be shared.
// Every other kind names its own sender and is returned as it is.
func Attributed(e *Envelope, from gcrypto.Address) *Envelope {
	if !e.MsgKind.byChannel() || e.From == from {
		return e
	}
	c := *e
	c.From = from
	return &c
}

// verifySum digests every field Verify covers (including the public
// key and signature, which envelopeDigest omits), so a memoized
// verdict can be tied to the exact bytes that were checked. The fields
// stream into the hash as kind, sender, then each of key, body and
// signature with its uvarint length, so nothing is copied.
func (e *Envelope) verifySum() gcrypto.Hash {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	n[0] = uint8(e.MsgKind)
	h.Write(n[:1])
	h.Write(e.From[:])
	for _, b := range [...][]byte{e.FromPub, e.Body, e.Signature} {
		h.Write(binary.AppendUvarint(n[:0], uint64(len(b))))
		h.Write(b)
	}
	var sum gcrypto.Hash
	h.Sum(sum[:0])
	return sum
}

func (e *Envelope) markVerified() {
	e.verifiedSum = e.verifySum()
	e.verified = true
}

// Verify checks the envelope signature and sender binding. A
// successful check is memoized: envelopes are immutable once sealed,
// and the single event loop that owns an envelope is the only writer.
func (e *Envelope) Verify() error {
	if e.verified && e.verifiedSum == e.verifySum() {
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

// Canonical states the envelope's wire format: the kind, the sender as
// far as the receiver cannot work it out (see Envelope), the body and
// the seal. A decode refuses the retired kind and derives From from the
// key it reads.
func (e *Envelope) Canonical(c codec.Coder) {
	codec.Uint8(c, &e.MsgKind)
	if c.Decoding() && e.MsgKind == kindRetiredCheckpoint {
		c.Fail(ErrEnvelopeRetired)
	}
	switch {
	case e.MsgKind.IntraEra():
		c.Uvarint(&e.Sender)
	case !e.MsgKind.byChannel():
		c.Fixed(&e.FromPub, ed25519.PublicKeySize)
		if c.Decoding() {
			e.From = gcrypto.AddressOf(e.FromPub)
		}
	}
	c.Bytes(&e.Body)
	c.Bytes(&e.Signature)
}

// MinEnvelopeSize is the length of the shortest envelope encoding: a
// kind that names no sender, then an empty body and signature. A list of
// encoded envelopes is bounded by it, plus a length byte each.
const MinEnvelopeSize = 3

// EncodeEnvelope returns the wire bytes of e.
func EncodeEnvelope(e *Envelope) []byte { return codec.Marshal(e) }

// DecodeEnvelope parses wire bytes into an envelope.
func DecodeEnvelope(b []byte) (*Envelope, error) { return codec.Unmarshal[Envelope](b) }

// WireSize returns the serialized size of the envelope in bytes; the
// simulator meters traffic with it. The value is cached: envelopes are
// immutable once sealed.
func (e *Envelope) WireSize() int {
	if e.wireSize == 0 {
		e.wireSize = len(EncodeEnvelope(e))
	}
	return e.wireSize
}

// Decoded returns the body as decode reads it, or as the memo kept it.
// keep memoizes a fresh result, for the goroutine that owns the envelope
// only (the read loop that decoded it off the wire, or its builder): a
// simulated broadcast hands all receivers one envelope.
func (e *Envelope) Decoded(keep bool, decode func() (any, error)) (any, error) {
	if e.memo != nil || e.memoErr != nil {
		return e.memo, e.memoErr
	}
	v, err := decode()
	if keep {
		e.memo, e.memoErr = v, err
	}
	return v, err
}

// Open verifies the envelope, checks its kind, and decodes the body
// into dst (which must match the kind's payload type).
func Open(e *Envelope, want MsgKind, dst codec.Unmarshaler) error {
	if e.MsgKind != want {
		return ErrEnvelopeKind
	}
	if err := e.Verify(); err != nil {
		return err
	}
	return codec.DecodeInto(e.Body, dst)
}

// OpenUnverified decodes the body without checking the envelope seal.
// On its own it is only sound for payloads that authenticate
// themselves — a relayed transaction carries its own signature over its
// full content, so it travels unsealed (see Unsealed). A consensus
// vote's authenticity is
// exactly the seal: the vote handlers decode with this only to decide
// whether the vote can still count, and call Verify before anything
// decoded from it is stored or acted on (pbft.admitVote).
func OpenUnverified(e *Envelope, want MsgKind, dst codec.Unmarshaler) error {
	if e.MsgKind != want {
		return ErrEnvelopeKind
	}
	return codec.DecodeInto(e.Body, dst)
}
