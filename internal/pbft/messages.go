// Package pbft implements Practical Byzantine Fault Tolerance (Castro
// & Liskov, OSDI '99) as an event-driven engine: the three normal-case
// phases (pre-prepare, prepare, commit), watermarks that advance with
// the commit certificates of the blocks the replica executes, and view
// change with new-view certificates. It is both the paper's comparison
// baseline and the intra-era consensus core of G-PBFT ("each era is an
// intact PBFT algorithm", Section III-E).
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
// own signature lives inside the transaction, and is all that
// authenticates it: the envelope is built by NewRequest, unsealed.
type Request struct {
	Tx types.Transaction
}

// NewRequest wraps a transaction for relay from kp. The envelope
// carries no seal and no sender: a receiver attributes it to the
// channel it arrived on, so a request only a member's own connection
// delivers counts as that member's relay, which is not relayed again.
func NewRequest(kp *gcrypto.KeyPair, tx *types.Transaction) *consensus.Envelope {
	return consensus.Unsealed(kp, &Request{Tx: *tx})
}

// Kind implements consensus.Payload.
func (*Request) Kind() consensus.MsgKind { return consensus.KindRequest }

// Canonical states the payload's format: the transaction's.
func (m *Request) Canonical(c codec.Coder) { m.Tx.Canonical(c) }

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *Request) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *Request) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// PrePrepare is the primary's proposal for the slot header's (era,
// view, seq): the block header, whose hash is the digest, and the block's
// transaction IDs in order. Backups assemble the block from their pools;
// the header's TxRoot commits to the full encodings (DESIGN.md 5n).
type PrePrepare struct {
	consensus.SlotHeader
	Header types.BlockHeader
	TxIDs  []gcrypto.Hash
}

// NewPrePrepare is the proposal of block b at (era, view, seq).
func NewPrePrepare(era, view, seq uint64, b *types.Block) *PrePrepare {
	ids := make([]gcrypto.Hash, len(b.Txs))
	for i := range b.Txs {
		ids[i] = b.Txs[i].ID()
	}
	return &PrePrepare{
		SlotHeader: consensus.SlotHeader{Era: era, View: view, Seq: seq, Digest: b.Hash()},
		Header:     b.Header,
		TxIDs:      ids,
	}
}

// Kind implements consensus.Payload.
func (*PrePrepare) Kind() consensus.MsgKind { return consensus.KindPrePrepare }

// Canonical states the payload's format.
func (m *PrePrepare) Canonical(c codec.Coder) {
	m.SlotHeader.Canonical(c)
	m.Header.Canonical(c)
	codec.List(c, &m.TxIDs, len(gcrypto.Hash{}), (*gcrypto.Hash).Canonical)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *PrePrepare) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *PrePrepare) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

// Fetch asks for transaction bodies of a proposal, or answers. A
// request names the slot and the IDs wanted and is sealed, so only a
// member can make a replica ship a block; a reply carries the bodies
// unsealed, and counts only if it holds exactly the IDs asked for and
// they complete the header's TxRoot.
type Fetch struct {
	consensus.SlotHeader
	IDs []gcrypto.Hash
	Txs []types.Transaction
}

// Kind implements consensus.Payload.
func (*Fetch) Kind() consensus.MsgKind { return consensus.KindFetch }

// Canonical states the payload's format.
func (m *Fetch) Canonical(c codec.Coder) {
	m.SlotHeader.Canonical(c)
	codec.List(c, &m.IDs, len(gcrypto.Hash{}), (*gcrypto.Hash).Canonical)
	codec.List(c, &m.Txs, types.MinTxSize, (*types.Transaction).Canonical)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *Fetch) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *Fetch) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

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

// minPreparedProofSize is the length of the shortest prepared proof
// encoding: two one-byte slot numbers, the digest, a pre-prepare
// envelope and an empty prepare list.
const minPreparedProofSize = 1 + 1 + len(gcrypto.Hash{}) + 1 + consensus.MinEnvelopeSize + 1

// Canonical states the proof's format.
func (p *PreparedProof) Canonical(c codec.Coder) {
	c.Uvarint(&p.Seq)
	c.Uvarint(&p.View)
	c.Raw(p.Digest[:])
	c.Bytes(&p.PrePrepareEnv)
	codec.List(c, &p.PrepareEnvs, 1+consensus.MinEnvelopeSize, codec.ByteString)
}

// ViewChange announces that a replica wants to move to NewView,
// carrying its stable point and any prepared-but-unexecuted proposal
// above it. StableCert, when present, proves LastStable: it is the
// commit certificate of the block at that height (DESIGN.md 5t). A
// claim without it proves nothing and lifts nobody's stable point.
type ViewChange struct {
	Era        uint64
	NewView    uint64
	LastStable uint64
	StableCert *types.Certificate
	Prepared   []PreparedProof
}

// Kind implements consensus.Payload.
func (*ViewChange) Kind() consensus.MsgKind { return consensus.KindViewChange }

// Canonical states the payload's format.
func (m *ViewChange) Canonical(c codec.Coder) {
	c.Uvarint(&m.Era)
	c.Uvarint(&m.NewView)
	c.Uvarint(&m.LastStable)
	codec.Optional(c, &m.StableCert, (*types.Certificate).Canonical)
	codec.List(c, &m.Prepared, minPreparedProofSize, (*PreparedProof).Canonical)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *ViewChange) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *ViewChange) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }

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

// Canonical states the payload's format.
func (m *NewView) Canonical(c codec.Coder) {
	c.Uvarint(&m.Era)
	c.Uvarint(&m.View)
	codec.List(c, &m.ViewChangeEnvs, 1+consensus.MinEnvelopeSize, codec.ByteString)
	codec.List(c, &m.PrePrepares, 1+consensus.MinEnvelopeSize, codec.ByteString)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (m *NewView) MarshalCanonical(w *codec.Writer)         { m.Canonical(w.Coder()) }
func (m *NewView) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, m) }
