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

// MarshalCanonical implements codec.Marshaler.
func (m *EraAnnounce) MarshalCanonical(w *codec.Writer) {
	w.Uint8(0) // subtype: announce
	w.Uint64(m.NewEra)
	w.Uint64(m.Height)
}

// UnmarshalCanonical decodes the payload.
func (m *EraAnnounce) UnmarshalCanonical(r *codec.Reader) error {
	if sub := r.Uint8(); r.Err() == nil && sub != 0 {
		return consensus.ErrEnvelopeKind
	}
	m.NewEra = r.Uint64()
	m.Height = r.Uint64()
	return r.Err()
}

// SyncRequest asks a peer for committed blocks above FromHeight.
type SyncRequest struct {
	FromHeight uint64 // first height the requester is missing
}

// Kind implements consensus.Payload.
func (*SyncRequest) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// MarshalCanonical implements codec.Marshaler.
func (m *SyncRequest) MarshalCanonical(w *codec.Writer) {
	w.Uint8(1) // subtype: request
	w.Uint64(m.FromHeight)
}

// UnmarshalCanonical decodes the payload.
func (m *SyncRequest) UnmarshalCanonical(r *codec.Reader) error {
	if sub := r.Uint8(); r.Err() == nil && sub != 1 {
		return consensus.ErrEnvelopeKind
	}
	m.FromHeight = r.Uint64()
	return r.Err()
}

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

// MarshalCanonical implements codec.Marshaler.
func (m *SyncResponse) MarshalCanonical(w *codec.Writer) {
	w.Uint8(2) // subtype: response
	w.Count(len(m.Blocks))
	for i := range m.Blocks {
		m.Blocks[i].MarshalCanonical(w)
	}
}

// UnmarshalCanonical decodes the payload.
func (m *SyncResponse) UnmarshalCanonical(r *codec.Reader) error {
	if sub := r.Uint8(); r.Err() == nil && sub != 2 {
		return consensus.ErrEnvelopeKind
	}
	n := r.CountOf(types.MinBlockSize)
	if r.Err() != nil {
		return r.Err()
	}
	m.Blocks = make([]types.Block, n)
	for i := 0; i < n; i++ {
		if err := m.Blocks[i].UnmarshalCanonical(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// HeadRequest asks a peer for its chain head and newest snapshot
// checkpoint. A joiner (or a node that was told its lag is too deep to
// tail) broadcasts it to the committee and waits for a quorum of
// HeadResponses agreeing on a snapshot (height, root) before it trusts
// any snapshot bytes.
type HeadRequest struct{}

// Kind implements consensus.Payload.
func (*HeadRequest) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// MarshalCanonical implements codec.Marshaler.
func (m *HeadRequest) MarshalCanonical(w *codec.Writer) {
	w.Uint8(3) // subtype: head request
}

// UnmarshalCanonical decodes the payload.
func (m *HeadRequest) UnmarshalCanonical(r *codec.Reader) error {
	if sub := r.Uint8(); r.Err() == nil && sub != 3 {
		return consensus.ErrEnvelopeKind
	}
	return r.Err()
}

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

// MarshalCanonical implements codec.Marshaler.
func (m *HeadResponse) MarshalCanonical(w *codec.Writer) {
	w.Uint8(4) // subtype: head response
	w.Uint64(m.Height)
	w.Uint64(m.SnapHeight)
	w.Raw(m.SnapRoot[:])
}

// UnmarshalCanonical decodes the payload.
func (m *HeadResponse) UnmarshalCanonical(r *codec.Reader) error {
	if sub := r.Uint8(); r.Err() == nil && sub != 4 {
		return consensus.ErrEnvelopeKind
	}
	m.Height = r.Uint64()
	m.SnapHeight = r.Uint64()
	r.RawInto(m.SnapRoot[:])
	return r.Err()
}

// SnapshotRequest asks a peer for the snapshot at exactly Height (the
// checkpoint a head quorum agreed on).
type SnapshotRequest struct {
	Height uint64
}

// Kind implements consensus.Payload.
func (*SnapshotRequest) Kind() consensus.MsgKind { return consensus.KindBlockSync }

// MarshalCanonical implements codec.Marshaler.
func (m *SnapshotRequest) MarshalCanonical(w *codec.Writer) {
	w.Uint8(5) // subtype: snapshot request
	w.Uint64(m.Height)
}

// UnmarshalCanonical decodes the payload.
func (m *SnapshotRequest) UnmarshalCanonical(r *codec.Reader) error {
	if sub := r.Uint8(); r.Err() == nil && sub != 5 {
		return consensus.ErrEnvelopeKind
	}
	m.Height = r.Uint64()
	return r.Err()
}

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

// MarshalCanonical implements codec.Marshaler.
func (m *SnapshotResponse) MarshalCanonical(w *codec.Writer) {
	w.Uint8(6) // subtype: snapshot response
	w.Uint64(m.Height)
	w.WriteBytes(m.Data)
}

// UnmarshalCanonical decodes the payload.
func (m *SnapshotResponse) UnmarshalCanonical(r *codec.Reader) error {
	if sub := r.Uint8(); r.Err() == nil && sub != 6 {
		return consensus.ErrEnvelopeKind
	}
	m.Height = r.Uint64()
	m.Data = r.ReadBytes()
	return r.Err()
}

// syncSubtype peeks the subtype byte of a KindBlockSync body.
func syncSubtype(body []byte) uint8 {
	if len(body) == 0 {
		return 0xFF
	}
	return body[0]
}
