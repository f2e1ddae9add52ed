// Package pbft implements Practical Byzantine Fault Tolerance (Castro
// & Liskov, OSDI '99) as an event-driven engine: the three normal-case
// phases (pre-prepare, prepare, commit), checkpointing with watermarks,
// and view change with new-view certificates. It is both the paper's
// comparison baseline and the intra-era consensus core of G-PBFT
// ("each era is an intact PBFT algorithm", Section III-E).
//
// Simplifications relative to the original, chosen to match the
// chain-of-blocks setting: the sequence number equals the block height,
// and up to MaxInFlight proposals run their phases concurrently inside
// the watermark window — each block built on its in-flight predecessor
// so the window forms a hash chain, commits gated on the parent slot
// being prepared, and execution streaming strictly in sequence order.
// Requests are transactions; replies
// are implicit — a client observes its transaction in a committed
// block, which is exactly how the paper measures consensus latency
// ("from the time when a transaction is sent to an endorser to the
// time when the transaction is written to the ledger").
package pbft

import (
	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// Request carries a client transaction to an endorser (and between
// endorsers, when a backup forwards it to the primary). The client's
// own signature lives inside the transaction; the envelope seal
// authenticates the forwarder.
type Request struct {
	Tx types.Transaction
}

// Kind implements consensus.Payload.
func (*Request) Kind() consensus.MsgKind { return consensus.KindRequest }

// MarshalCanonical implements codec.Marshaler.
func (m *Request) MarshalCanonical(w *codec.Writer) {
	m.Tx.MarshalCanonical(w)
}

// UnmarshalCanonical decodes the payload.
func (m *Request) UnmarshalCanonical(r *codec.Reader) error {
	return m.Tx.UnmarshalCanonical(r)
}

// PrePrepare is the primary's proposal for the header's (era, view,
// seq): the full block piggybacked with its digest.
type PrePrepare struct {
	consensus.SlotHeader
	Block types.Block
}

// Kind implements consensus.Payload.
func (*PrePrepare) Kind() consensus.MsgKind { return consensus.KindPrePrepare }

// MarshalCanonical implements codec.Marshaler.
func (m *PrePrepare) MarshalCanonical(w *codec.Writer) {
	m.SlotHeader.MarshalCanonical(w)
	m.Block.MarshalCanonical(w)
}

// UnmarshalCanonical decodes the payload.
func (m *PrePrepare) UnmarshalCanonical(r *codec.Reader) error {
	if err := m.SlotHeader.UnmarshalCanonical(r); err != nil {
		return err
	}
	return m.Block.UnmarshalCanonical(r)
}

// Prepare is a backup's agreement to the proposal digest: a slot header
// and nothing else, encoded by the embedded type.
type Prepare struct{ consensus.SlotHeader }

// Kind implements consensus.Payload.
func (*Prepare) Kind() consensus.MsgKind { return consensus.KindPrepare }

// Commit is a replica's commit vote, and the same bytes again are its
// vote in the block's certificate: the seal of the commit envelope
// signs (kind = commit, sender, era, view, seq, digest), which a third
// party (a client, a late joiner) rebuilds from the block and verifies
// cold (types.Certificate.Verify). The body carries no signature of its
// own.
type Commit struct{ consensus.SlotHeader }

// Kind implements consensus.Payload.
func (*Commit) Kind() consensus.MsgKind { return consensus.KindCommit }

// Checkpoint attests that the replica executed through Seq with the
// given block digest; 2f+1 matching checkpoints form a stable
// checkpoint and let replicas garbage-collect their logs. View is left
// zero and never read: a sequence number is executed once, whatever view
// decided it.
type Checkpoint struct{ consensus.SlotHeader }

// Kind implements consensus.Payload.
func (*Checkpoint) Kind() consensus.MsgKind { return consensus.KindCheckpoint }

// PreparedProof shows that a proposal reached prepared state: the
// pre-prepare envelope plus 2f prepare envelopes from distinct
// replicas. It rides inside a ViewChange so the new primary can
// re-propose the value.
type PreparedProof struct {
	Seq           uint64
	View          uint64
	Digest        gcrypto.Hash
	PrePrepareEnv []byte   // encoded consensus.Envelope
	PrepareEnvs   [][]byte // encoded consensus.Envelopes
}

// MarshalCanonical implements codec.Marshaler.
func (p *PreparedProof) MarshalCanonical(w *codec.Writer) {
	w.Uvarint(p.Seq)
	w.Uvarint(p.View)
	w.Raw(p.Digest[:])
	w.WriteBytes(p.PrePrepareEnv)
	w.Count(len(p.PrepareEnvs))
	for _, e := range p.PrepareEnvs {
		w.WriteBytes(e)
	}
}

// UnmarshalCanonical decodes the proof.
func (p *PreparedProof) UnmarshalCanonical(r *codec.Reader) error {
	p.Seq = r.Uvarint()
	p.View = r.Uvarint()
	r.RawInto(p.Digest[:])
	p.PrePrepareEnv = r.ReadBytes()
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	p.PrepareEnvs = make([][]byte, n)
	for i := 0; i < n; i++ {
		p.PrepareEnvs[i] = r.ReadBytes()
	}
	return r.Err()
}

// ViewChange announces that a replica wants to move to NewView,
// carrying its last stable checkpoint and any prepared-but-unexecuted
// proposal above it.
type ViewChange struct {
	Era        uint64
	NewView    uint64
	LastStable uint64
	Prepared   []PreparedProof
}

// Kind implements consensus.Payload.
func (*ViewChange) Kind() consensus.MsgKind { return consensus.KindViewChange }

// MarshalCanonical implements codec.Marshaler.
func (m *ViewChange) MarshalCanonical(w *codec.Writer) {
	w.Uvarint(m.Era)
	w.Uvarint(m.NewView)
	w.Uvarint(m.LastStable)
	w.Count(len(m.Prepared))
	for i := range m.Prepared {
		m.Prepared[i].MarshalCanonical(w)
	}
}

// UnmarshalCanonical decodes the payload.
func (m *ViewChange) UnmarshalCanonical(r *codec.Reader) error {
	m.Era = r.Uvarint()
	m.NewView = r.Uvarint()
	m.LastStable = r.Uvarint()
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.Prepared = make([]PreparedProof, n)
	for i := 0; i < n; i++ {
		if err := m.Prepared[i].UnmarshalCanonical(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// NewView is the new primary's proof that 2f+1 replicas agreed to the
// view change, plus the pre-prepares it re-issues for prepared values.
type NewView struct {
	Era            uint64
	View           uint64
	ViewChangeEnvs [][]byte // 2f+1 encoded ViewChange envelopes
	PrePrepares    [][]byte // encoded PrePrepare envelopes to adopt
}

// Kind implements consensus.Payload.
func (*NewView) Kind() consensus.MsgKind { return consensus.KindNewView }

// MarshalCanonical implements codec.Marshaler.
func (m *NewView) MarshalCanonical(w *codec.Writer) {
	w.Uvarint(m.Era)
	w.Uvarint(m.View)
	w.Count(len(m.ViewChangeEnvs))
	for _, e := range m.ViewChangeEnvs {
		w.WriteBytes(e)
	}
	w.Count(len(m.PrePrepares))
	for _, e := range m.PrePrepares {
		w.WriteBytes(e)
	}
}

// UnmarshalCanonical decodes the payload.
func (m *NewView) UnmarshalCanonical(r *codec.Reader) error {
	m.Era = r.Uvarint()
	m.View = r.Uvarint()
	n := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.ViewChangeEnvs = make([][]byte, n)
	for i := 0; i < n; i++ {
		m.ViewChangeEnvs[i] = r.ReadBytes()
	}
	k := r.Count()
	if r.Err() != nil {
		return r.Err()
	}
	m.PrePrepares = make([][]byte, k)
	for i := 0; i < k; i++ {
		m.PrePrepares[i] = r.ReadBytes()
	}
	return r.Err()
}
