package core

import (
	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// EraAnnounce notifies a node (typically a freshly elected endorser)
// that the chain switched to a new era at the given height. The
// receiver syncs any blocks it is missing and, if it is in the new
// committee, joins consensus. Sent by old-era endorsers after the
// switch ("it relaunches the new consensus after the finish of the era
// switch", Section IV-A2).
type EraAnnounce struct {
	NewEra uint64
	Height uint64 // chain height of the boundary block that switched the era
}

// Kind implements consensus.Payload.
func (*EraAnnounce) Kind() consensus.MsgKind { return consensus.KindEraSwitch }

// Canonical states the payload's format.
func (m *EraAnnounce) Canonical(c codec.Coder) {
	subtype(c, 0) // announce
	c.Uint64(&m.NewEra)
	c.Uint64(&m.Height)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *EraAnnounce) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *EraAnnounce) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// SyncRequest asks a peer for committed blocks above FromHeight.
type SyncRequest struct {
	FromHeight uint64 // first height the requester is missing
}

// Kind implements consensus.Payload.
func (*SyncRequest) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// Canonical states the payload's format.
func (m *SyncRequest) Canonical(c codec.Coder) {
	subtype(c, 1) // request
	c.Uint64(&m.FromHeight)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *SyncRequest) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *SyncRequest) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// MaxSyncBlocks caps one sync response.
const MaxSyncBlocks = 256

// SyncResponse returns consecutive committed blocks, each carrying its
// commit certificate so the receiver can verify them against its known
// committee before applying.
type SyncResponse struct {
	Blocks []types.Block
}

// Kind implements consensus.Payload.
func (*SyncResponse) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// Canonical states the payload's format.
func (m *SyncResponse) Canonical(c codec.Coder) {
	subtype(c, 2) // response
	codec.List(c, &m.Blocks, types.MinBlockSize, (*types.Block).Canonical)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *SyncResponse) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *SyncResponse) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// HeadRequest asks a peer for its chain head and newest snapshot
// checkpoint. A joiner (or a node that was told its lag is too deep to
// tail) broadcasts it to the committee and waits for a quorum of
// HeadResponses agreeing on a snapshot (height, root) before it trusts
// any snapshot bytes.
type HeadRequest struct{}

// Kind implements consensus.Payload.
func (*HeadRequest) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// Canonical states the payload's format.
func (m *HeadRequest) Canonical(c codec.Coder) {
	subtype(c, 3) // head request
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *HeadRequest) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *HeadRequest) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// HeadResponse reports a peer's committed head and its newest retained
// snapshot checkpoint (SnapHeight 0 when it has none). The root is what
// anchors fast-sync trust: a snapshot is installed only when a quorum
// of committee members independently reported the same (height, root).
// Peers also send it as a redirect in place of a SyncResponse when the
// requested range has been compacted away.
type HeadResponse struct {
	Height     uint64
	SnapHeight uint64
	SnapRoot   gcrypto.Hash
}

// Kind implements consensus.Payload.
func (*HeadResponse) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// Canonical states the payload's format.
func (m *HeadResponse) Canonical(c codec.Coder) {
	subtype(c, 4) // head response
	c.Uint64(&m.Height)
	c.Uint64(&m.SnapHeight)
	c.Raw(m.SnapRoot[:])
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *HeadResponse) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *HeadResponse) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// SnapshotRequest asks a peer for the snapshot at exactly Height (the
// checkpoint a head quorum agreed on).
type SnapshotRequest struct {
	Height uint64
}

// Kind implements consensus.Payload.
func (*SnapshotRequest) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// Canonical states the payload's format.
func (m *SnapshotRequest) Canonical(c codec.Coder) {
	subtype(c, 5) // snapshot request
	c.Uint64(&m.Height)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *SnapshotRequest) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *SnapshotRequest) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// SnapshotResponse carries the encoded, signed snapshot. The receiver
// independently decodes, verifies the producer signature, and checks
// the state root against the quorum-agreed root before installing —
// the carrier is untrusted.
type SnapshotResponse struct {
	Height uint64
	Data   []byte
}

// Kind implements consensus.Payload.
func (*SnapshotResponse) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// Canonical states the payload's format.
func (m *SnapshotResponse) Canonical(c codec.Coder) {
	subtype(c, 6) // snapshot response
	c.Uint64(&m.Height)
	c.Bytes(&m.Data)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *SnapshotResponse) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *SnapshotResponse) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// subtype codes the leading byte that tells the payloads of one kind
// apart. A decode refuses any other subtype than the one it expects.
func subtype(c codec.Coder, want uint8) {
	sub := want
	codec.Uint8(c, &sub)
	if c.Decoding() && sub != want {
		c.Fail(consensus.ErrEnvelopeKind)
	}
}

// syncSubtype peeks the subtype byte of a KindBlockSync body.
func syncSubtype(body []byte) uint8 {
	if len(body) == 0 {
		return 0xFF
	}
	return body[0]
}
