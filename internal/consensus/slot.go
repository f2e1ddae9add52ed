package consensus

import (
	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// SlotHeader is what every slot-bound payload — pre-prepare, prepare,
// commit, checkpoint — begins with: the slot it speaks for and the
// digest of the value it speaks about. A prepare and a commit are
// nothing else. Era, View and Seq travel as canonical uvarints: a round
// is O(n²) votes whatever its block carries, and three fixed-width
// integers were a fifth of a vote's body.
//
// The layout has one more reader: types.CommitVoteBytes rebuilds a
// commit's signed bytes from a block and its certificate, without this
// package (TestCommitSealIsCertificateVote holds the two together).
type SlotHeader struct {
	Era    uint64
	View   uint64
	Seq    uint64
	Digest gcrypto.Hash
}

// MarshalCanonical implements codec.Marshaler.
func (h *SlotHeader) MarshalCanonical(w *codec.Writer) {
	w.Uvarint(h.Era)
	w.Uvarint(h.View)
	w.Uvarint(h.Seq)
	w.Raw(h.Digest[:])
}

// UnmarshalCanonical decodes the header.
func (h *SlotHeader) UnmarshalCanonical(r *codec.Reader) error {
	h.Era = r.Uvarint()
	h.View = r.Uvarint()
	h.Seq = r.Uvarint()
	r.RawInto(h.Digest[:])
	return r.Err()
}

// PeekSlot reads the slot header of a pre-prepare, prepare, commit or
// checkpoint without opening the envelope: nothing is verified, and
// whatever follows the header is not looked at. It is for code that
// routes or cross-examines votes without knowing their payload types.
func PeekSlot(env *Envelope) (SlotHeader, bool) {
	var h SlotHeader
	switch env.MsgKind {
	case KindPrePrepare, KindPrepare, KindCommit, KindCheckpoint:
		return h, h.UnmarshalCanonical(codec.NewReader(env.Body)) == nil
	default:
		return h, false
	}
}

// PeekEra reads the era an intra-era payload is for — its leading
// uvarint, whether a slot header or a view change's own fields follow —
// and reports false for the kinds that belong to no era.
func PeekEra(env *Envelope) (uint64, bool) {
	switch env.MsgKind {
	case KindPrePrepare, KindPrepare, KindCommit, KindCheckpoint, KindViewChange, KindNewView:
		r := codec.NewReader(env.Body)
		era := r.Uvarint()
		return era, r.Err() == nil
	default:
		return 0, false
	}
}
