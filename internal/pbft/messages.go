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

// MarshalCanonical implements codec.Marshaler.
func (m *Request) MarshalCanonical(w *codec.Writer) {
	m.Tx.MarshalCanonical(w)
}

// UnmarshalCanonical decodes the payload.
func (m *Request) UnmarshalCanonical(r *codec.Reader) error {
	return m.Tx.UnmarshalCanonical(r)
}

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

// MarshalCanonical implements codec.Marshaler.
func (m *PrePrepare) MarshalCanonical(w *codec.Writer) {
	m.SlotHeader.MarshalCanonical(w)
	m.Header.MarshalCanonical(w)
	writeIDs(w, m.TxIDs)
}

// UnmarshalCanonical decodes the payload.
func (m *PrePrepare) UnmarshalCanonical(r *codec.Reader) error {
	if err := m.SlotHeader.UnmarshalCanonical(r); err != nil {
		return err
	}
	if err := m.Header.UnmarshalCanonical(r); err != nil {
		return err
	}
	m.TxIDs = readIDs(r)
	return r.Err()
}

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

// MarshalCanonical implements codec.Marshaler.
func (m *Fetch) MarshalCanonical(w *codec.Writer) {
	m.SlotHeader.MarshalCanonical(w)
	writeIDs(w, m.IDs)
	w.Count(len(m.Txs))
	for i := range m.Txs {
		m.Txs[i].MarshalCanonical(w)
	}
}

// UnmarshalCanonical decodes the payload.
func (m *Fetch) UnmarshalCanonical(r *codec.Reader) error {
	if err := m.SlotHeader.UnmarshalCanonical(r); err != nil {
		return err
	}
	m.IDs = readIDs(r)
	n := r.CountOf(types.MinTxSize)
	if r.Err() != nil {
		return r.Err()
	}
	m.Txs = make([]types.Transaction, n)
	for i := range m.Txs {
		if err := m.Txs[i].UnmarshalCanonical(r); err != nil {
			return err
		}
	}
	return r.Err()
}

func writeIDs(w *codec.Writer, ids []gcrypto.Hash) {
	w.Count(len(ids))
	for i := range ids {
		w.Raw(ids[i][:])
	}
}

func readIDs(r *codec.Reader) []gcrypto.Hash {
	n := r.CountOf(len(gcrypto.Hash{}))
	if r.Err() != nil {
		return nil
	}
	ids := make([]gcrypto.Hash, n)
	for i := range ids {
		r.RawInto(ids[i][:])
	}
	return ids
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
	n := r.CountOf(1 + consensus.MinEnvelopeSize)
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

// MarshalCanonical implements codec.Marshaler.
func (m *ViewChange) MarshalCanonical(w *codec.Writer) {
	w.Uvarint(m.Era)
	w.Uvarint(m.NewView)
	w.Uvarint(m.LastStable)
	w.Bool(m.StableCert != nil)
	if m.StableCert != nil {
		m.StableCert.MarshalCanonical(w)
	}
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
	if r.Bool() {
		// The certificate's decoder bounds its vote list by CountOf.
		m.StableCert = new(types.Certificate)
		if err := m.StableCert.UnmarshalCanonical(r); err != nil {
			return err
		}
	}
	n := r.CountOf(minPreparedProofSize)
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
	n := r.CountOf(1 + consensus.MinEnvelopeSize)
	if r.Err() != nil {
		return r.Err()
	}
	m.ViewChangeEnvs = make([][]byte, n)
	for i := 0; i < n; i++ {
		m.ViewChangeEnvs[i] = r.ReadBytes()
	}
	k := r.CountOf(1 + consensus.MinEnvelopeSize)
	if r.Err() != nil {
		return r.Err()
	}
	m.PrePrepares = make([][]byte, k)
	for i := 0; i < k; i++ {
		m.PrePrepares[i] = r.ReadBytes()
	}
	return r.Err()
}
