// Package evidence defines self-verifying proofs of endorser
// misbehavior. The paper's era switch "expels endorsers" that
// misbehave; this package supplies the artifact that makes expulsion a
// consensus decision rather than a local suspicion: a Record bundles
// the offender's own signed messages, so any replica — or any third
// party — can re-verify the accusation from the record alone, with no
// trust in whoever assembled it.
//
// Three offenses are provable today:
//
//   - DoubleSign: two envelopes signed by the same replica carrying
//     conflicting votes (different digests) for the same consensus slot
//     (kind, era, view, seq). The two signatures ARE the proof — a
//     correct replica's persist-before-send WAL makes this impossible
//     by accident, even across crashes.
//   - SybilSameCell: two transactions from distinct identities whose
//     geographic information resolves to the same CSC cell within a
//     configured window — the Sybil pattern Section IV-A1 rules out
//     ("different nodes cannot report the same geographic information
//     at the same time").
//   - LocationSpoof: a device's signed location claim contradicted by
//     a quorum of signed witness disputes for the claimed cell
//     (Section II-C supervision). This one is quorum-attested rather
//     than purely self-incriminating, so verification additionally
//     requires the witnesses to be credible (committee members).
//
// Records travel as TxEvidence transactions: gossiped like any client
// request, validated by every replica before a block carrying them can
// commit, and folded into the chain's dynamic blacklist on commit.
package evidence

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// Type discriminates the provable offenses.
type Type uint8

// Offense types.
const (
	// DoubleSign proves equivocation: two conflicting signed votes for
	// one consensus slot. Proofs[0] is the offender's public key, which
	// the envelopes name only by committee position; Proofs[1] and
	// Proofs[2] are the encoded envelopes, ordered lexicographically.
	DoubleSign Type = iota + 1
	// SybilSameCell proves two identities sharing one CSC cell at
	// overlapping times. Proofs are the two encoded transactions, in
	// offender order.
	SybilSameCell
	// LocationSpoof proves a location claim disputed by a witness
	// quorum. Proofs[0] is the subject's claim transaction; the rest
	// are TxWitness disputes from distinct witnesses, in witness order.
	LocationSpoof
)

// String names the offense.
func (t Type) String() string {
	switch t {
	case DoubleSign:
		return "double-sign"
	case SybilSameCell:
		return "sybil-same-cell"
	case LocationSpoof:
		return "location-spoof"
	default:
		return fmt.Sprintf("evidence(%d)", uint8(t))
	}
}

// Decoding limits. An evidence record accuses at most two identities
// (the Sybil pair) and carries at most a claim plus a bounded witness
// set; anything larger is malformed by construction.
const (
	MaxOffenders = 2
	MaxProofs    = 33 // 1 claim + up to 32 witness disputes
)

// Record is one self-contained accusation. Everything needed to check
// it is inside Proofs; Kind and Offenders only say what the proofs are
// claimed to show, and Verify confirms they show exactly that.
type Record struct {
	Kind      Type
	Offenders []gcrypto.Address
	Proofs    [][]byte
}

// Errors returned by evidence decoding and verification.
var (
	ErrKind     = errors.New("evidence: unknown evidence type")
	ErrShape    = errors.New("evidence: record shape invalid for type")
	ErrProof    = errors.New("evidence: proofs do not establish the offense")
	ErrDisabled = errors.New("evidence: offense type not accepted by policy")
	errTag      = errors.New("evidence: bad record tag")
)

const recordTag = "gpbft/evidence/v1"

// Canonical states the record's format. A decode refuses an empty or
// oversized offender or proof list before allocating for it.
func (rec *Record) Canonical(c codec.Coder) {
	c.Tag(recordTag, errTag)
	codec.Uint8(c, &rec.Kind)
	codec.CheckedList(c, &rec.Offenders, gcrypto.AddressSize, within(MaxOffenders), (*gcrypto.Address).Canonical)
	codec.CheckedList(c, &rec.Proofs, 1+consensus.MinEnvelopeSize, within(MaxProofs), codec.ByteString) // an envelope or a transaction, the envelope shorter
}

// within refuses a list count outside [1, limit] as ErrShape.
func within(limit int) func(int) error {
	return func(n int) error {
		if n == 0 || n > limit {
			return ErrShape
		}
		return nil
	}
}

// Encode returns the canonical wire bytes of rec.
func Encode(rec *Record) []byte { return codec.Marshal(rec) }

// Decode parses wire bytes into a record, requiring full consumption.
// It checks structure only; call Verify to check the proofs.
func Decode(b []byte) (*Record, error) { return codec.Unmarshal[Record](b) }

// ID is the record's digest over its canonical encoding. Constructors
// order proofs deterministically, so independent detectors of the same
// offense produce the same ID — which is what lets the chain dedupe
// the accusations of many honest replicas into one blacklist entry.
func (rec *Record) ID() gcrypto.Hash { return gcrypto.HashBytes(Encode(rec)) }

// VerifyContext carries the policy parameters verification depends on.
// They come from the genesis admittance policy, so every replica
// verifies with identical parameters and block validity stays
// deterministic.
type VerifyContext struct {
	// SybilWindow is the maximum timestamp gap between two same-cell
	// reports for them to count as simultaneous. Zero or negative
	// rejects all SybilSameCell records.
	SybilWindow time.Duration
	// MinWitnesses is the dispute quorum for LocationSpoof. Zero or
	// negative rejects all LocationSpoof records.
	MinWitnesses int
	// CredibleWitness gates who may contribute a dispute (typically:
	// current endorsers, so candidates cannot frame each other with
	// throwaway keys). Nil accepts any valid signer.
	CredibleWitness func(gcrypto.Address) bool
}

// Verify checks that the proofs establish the claimed offense by the
// claimed offenders. A nil error means the record is safe to act on:
// the offenders provably misbehaved.
func (rec *Record) Verify(ctx VerifyContext) error {
	switch rec.Kind {
	case DoubleSign:
		return rec.verifyDoubleSign()
	case SybilSameCell:
		return rec.verifySybil(ctx.SybilWindow)
	case LocationSpoof:
		return rec.verifySpoof(ctx)
	default:
		return ErrKind
	}
}

func (rec *Record) verifyDoubleSign() error {
	if len(rec.Offenders) != 1 || len(rec.Proofs) != 3 {
		return ErrShape
	}
	key := rec.Proofs[0]
	if gcrypto.AddressOf(key) != rec.Offenders[0] {
		return fmt.Errorf("%w: key is not the accused's", ErrProof)
	}
	if bytes.Equal(rec.Proofs[1], rec.Proofs[2]) {
		return fmt.Errorf("%w: proofs are the same message", ErrProof)
	}
	if bytes.Compare(rec.Proofs[1], rec.Proofs[2]) > 0 {
		return fmt.Errorf("%w: proofs not in canonical order", ErrShape)
	}
	envA, err := consensus.DecodeEnvelope(rec.Proofs[1])
	if err != nil {
		return fmt.Errorf("%w: %v", ErrProof, err)
	}
	envB, err := consensus.DecodeEnvelope(rec.Proofs[2])
	if err != nil {
		return fmt.Errorf("%w: %v", ErrProof, err)
	}
	// The seals sign the accused's address; the position named is no part of the proof.
	for _, env := range []*consensus.Envelope{envA, envB} {
		env.From, env.FromPub = rec.Offenders[0], key
	}
	if envA.MsgKind != envB.MsgKind {
		return fmt.Errorf("%w: envelopes of different kinds", ErrProof)
	}
	switch envA.MsgKind {
	case consensus.KindPrePrepare, consensus.KindPrepare, consensus.KindCommit:
	default:
		return fmt.Errorf("%w: kind %v is not a vote", ErrProof, envA.MsgKind)
	}
	if err := envA.Verify(); err != nil {
		return fmt.Errorf("%w: %v", ErrProof, err)
	}
	if err := envB.Verify(); err != nil {
		return fmt.Errorf("%w: %v", ErrProof, err)
	}
	// The slot header is all of a vote this package needs, which keeps
	// it free of a pbft dependency (the pbft engine imports us).
	va, okA := consensus.PeekSlot(envA)
	vb, okB := consensus.PeekSlot(envB)
	if !okA || !okB {
		return fmt.Errorf("%w: vote body has no slot header", ErrProof)
	}
	if va.Era != vb.Era || va.View != vb.View || va.Seq != vb.Seq {
		return fmt.Errorf("%w: votes are for different slots", ErrProof)
	}
	if va.Digest == vb.Digest {
		return fmt.Errorf("%w: votes agree on the digest", ErrProof)
	}
	return nil
}

func (rec *Record) verifySybil(window time.Duration) error {
	if window <= 0 {
		return ErrDisabled
	}
	if len(rec.Offenders) != 2 || len(rec.Proofs) != 2 {
		return ErrShape
	}
	if bytes.Compare(rec.Offenders[0][:], rec.Offenders[1][:]) >= 0 {
		return fmt.Errorf("%w: offenders not distinct and sorted", ErrShape)
	}
	var cells [2]string
	var stamps [2]time.Time
	for i := 0; i < 2; i++ {
		tx, err := types.DecodeTx(rec.Proofs[i])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrProof, err)
		}
		if err := tx.Verify(); err != nil {
			return fmt.Errorf("%w: %v", ErrProof, err)
		}
		if tx.Sender != rec.Offenders[i] {
			return fmt.Errorf("%w: proof %d not from offender %d", ErrProof, i, i)
		}
		csc, err := tx.Report().CSC()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrProof, err)
		}
		cells[i] = csc.Geohash
		stamps[i] = tx.Geo.Timestamp
	}
	if cells[0] != cells[1] {
		return fmt.Errorf("%w: reports are for different cells", ErrProof)
	}
	gap := stamps[0].Sub(stamps[1])
	if gap < 0 {
		gap = -gap
	}
	if gap > window {
		return fmt.Errorf("%w: reports %v apart exceed the %v window", ErrProof, gap, window)
	}
	return nil
}

func (rec *Record) verifySpoof(ctx VerifyContext) error {
	if ctx.MinWitnesses <= 0 {
		return ErrDisabled
	}
	if len(rec.Offenders) != 1 {
		return ErrShape
	}
	if len(rec.Proofs) < 1+ctx.MinWitnesses {
		return fmt.Errorf("%w: %d disputes below the %d-witness quorum", ErrShape, len(rec.Proofs)-1, ctx.MinWitnesses)
	}
	subject := rec.Offenders[0]
	claim, err := types.DecodeTx(rec.Proofs[0])
	if err != nil {
		return fmt.Errorf("%w: %v", ErrProof, err)
	}
	if err := claim.Verify(); err != nil {
		return fmt.Errorf("%w: %v", ErrProof, err)
	}
	if claim.Sender != subject {
		return fmt.Errorf("%w: claim not signed by the accused", ErrProof)
	}
	csc, err := claim.Report().CSC()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrProof, err)
	}
	seen := make(map[gcrypto.Address]bool, len(rec.Proofs)-1)
	var prev gcrypto.Address
	for i, raw := range rec.Proofs[1:] {
		wtx, err := types.DecodeTx(raw)
		if err != nil {
			return fmt.Errorf("%w: witness %d: %v", ErrProof, i, err)
		}
		if wtx.Type != types.TxWitness {
			return fmt.Errorf("%w: witness %d is not a witness transaction", ErrProof, i)
		}
		if err := wtx.Verify(); err != nil {
			return fmt.Errorf("%w: witness %d: %v", ErrProof, i, err)
		}
		if wtx.Sender == subject {
			return fmt.Errorf("%w: witness %d is the accused", ErrProof, i)
		}
		if i > 0 && bytes.Compare(prev[:], wtx.Sender[:]) >= 0 {
			return fmt.Errorf("%w: witnesses not distinct and sorted", ErrShape)
		}
		prev = wtx.Sender
		st, err := types.DecodeWitnessStatement(wtx.Payload)
		if err != nil {
			return fmt.Errorf("%w: witness %d: %v", ErrProof, i, err)
		}
		if st.Subject != subject || st.Geohash != csc.Geohash || st.Seen {
			return fmt.Errorf("%w: witness %d does not dispute the claimed cell", ErrProof, i)
		}
		if ctx.CredibleWitness != nil && !ctx.CredibleWitness(wtx.Sender) {
			return fmt.Errorf("%w: witness %d is not credible", ErrProof, i)
		}
		seen[wtx.Sender] = true
	}
	if len(seen) < ctx.MinWitnesses {
		return fmt.Errorf("%w: only %d distinct witnesses", ErrProof, len(seen))
	}
	return nil
}

// NewDoubleSign assembles and self-checks a DoubleSign record from two
// conflicting vote envelopes. Proofs are ordered lexicographically so
// every detector of the same pair produces an identical record.
func NewDoubleSign(a, b *consensus.Envelope) (*Record, error) {
	if a == nil || b == nil {
		return nil, ErrShape
	}
	ea, eb := consensus.EncodeEnvelope(a), consensus.EncodeEnvelope(b)
	if bytes.Compare(ea, eb) > 0 {
		ea, eb = eb, ea
	}
	rec := &Record{
		Kind:      DoubleSign,
		Offenders: []gcrypto.Address{a.From},
		Proofs:    [][]byte{a.FromPub, ea, eb},
	}
	if err := rec.verifyDoubleSign(); err != nil {
		return nil, err
	}
	return rec, nil
}

// NewSybilSameCell assembles and self-checks a SybilSameCell record
// from two committed transactions reporting one cell. Offenders are
// sorted by address for determinism.
func NewSybilSameCell(a, b *types.Transaction, window time.Duration) (*Record, error) {
	if a == nil || b == nil {
		return nil, ErrShape
	}
	if bytes.Compare(b.Sender[:], a.Sender[:]) < 0 {
		a, b = b, a
	}
	rec := &Record{
		Kind:      SybilSameCell,
		Offenders: []gcrypto.Address{a.Sender, b.Sender},
		Proofs:    [][]byte{types.EncodeTx(a), types.EncodeTx(b)},
	}
	if err := rec.verifySybil(window); err != nil {
		return nil, err
	}
	return rec, nil
}

// NewLocationSpoof assembles and self-checks a LocationSpoof record
// from the subject's claim and the disputing witness transactions.
// Witnesses are sorted by address for determinism.
func NewLocationSpoof(claim *types.Transaction, witnesses []*types.Transaction, ctx VerifyContext) (*Record, error) {
	if claim == nil {
		return nil, ErrShape
	}
	ws := append([]*types.Transaction(nil), witnesses...)
	sort.Slice(ws, func(i, j int) bool {
		return bytes.Compare(ws[i].Sender[:], ws[j].Sender[:]) < 0
	})
	rec := &Record{
		Kind:      LocationSpoof,
		Offenders: []gcrypto.Address{claim.Sender},
		Proofs:    make([][]byte, 0, 1+len(ws)),
	}
	rec.Proofs = append(rec.Proofs, types.EncodeTx(claim))
	for _, w := range ws {
		rec.Proofs = append(rec.Proofs, types.EncodeTx(w))
	}
	if err := rec.verifySpoof(ctx); err != nil {
		return nil, err
	}
	return rec, nil
}

// Describe renders a one-line human summary (for gpbft-inspect).
func (rec *Record) Describe() string {
	var who bytes.Buffer
	for i, a := range rec.Offenders {
		if i > 0 {
			who.WriteString("+")
		}
		who.WriteString(a.Short())
	}
	detail := ""
	switch rec.Kind {
	case DoubleSign:
		if env, err := consensus.DecodeEnvelope(rec.Proofs[len(rec.Proofs)-1]); err == nil {
			if v, ok := consensus.PeekSlot(env); ok {
				detail = fmt.Sprintf(" %v era=%d view=%d seq=%d", env.MsgKind, v.Era, v.View, v.Seq)
			}
		}
	case SybilSameCell:
		if tx, err := types.DecodeTx(rec.Proofs[0]); err == nil {
			if csc, err := tx.Report().CSC(); err == nil {
				detail = " cell=" + csc.Geohash
			}
		}
	case LocationSpoof:
		if tx, err := types.DecodeTx(rec.Proofs[0]); err == nil {
			if csc, err := tx.Report().CSC(); err == nil {
				detail = fmt.Sprintf(" cell=%s witnesses=%d", csc.Geohash, len(rec.Proofs)-1)
			}
		}
	}
	return fmt.Sprintf("%v by %s%s id=%s", rec.Kind, who.String(), detail, rec.ID().Short())
}
