package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// BlockHeader commits to a block's position, era, proposer, and
// transaction set.
type BlockHeader struct {
	Height    uint64 // chain height; genesis is 0
	Era       uint64 // G-PBFT era this block was produced in
	View      uint64 // PBFT view inside the era
	Seq       uint64 // PBFT sequence number inside the era
	PrevHash  gcrypto.Hash
	TxRoot    gcrypto.Hash // Merkle root over EncodeTx of each tx
	Proposer  gcrypto.Address
	Timestamp time.Time
}

// MarshalCanonical appends the canonical header encoding.
func (h *BlockHeader) MarshalCanonical(w *codec.Writer) {
	w.String("gpbft/block/v1")
	w.Uint64(h.Height)
	w.Uint64(h.Era)
	w.Uint64(h.View)
	w.Uint64(h.Seq)
	w.Raw(h.PrevHash[:])
	w.Raw(h.TxRoot[:])
	w.Raw(h.Proposer[:])
	w.Time(h.Timestamp)
}

// UnmarshalCanonical decodes a header.
func (h *BlockHeader) UnmarshalCanonical(r *codec.Reader) error {
	if tag := r.ReadString(); r.Err() == nil && tag != "gpbft/block/v1" {
		return fmt.Errorf("types: bad block tag %q", tag)
	}
	h.Height = r.Uint64()
	h.Era = r.Uint64()
	h.View = r.Uint64()
	h.Seq = r.Uint64()
	r.RawInto(h.PrevHash[:])
	r.RawInto(h.TxRoot[:])
	r.RawInto(h.Proposer[:])
	h.Timestamp = r.Time()
	return r.Err()
}

// Hash returns the block identifier: the digest of the header.
func (h *BlockHeader) Hash() gcrypto.Hash {
	return gcrypto.HashBytes(codec.Encode(h))
}

// Vote is one endorser's commit vote for a block: the seal of the commit
// envelope it sent (see CommitVoteBytes).
type Vote struct {
	Endorser  gcrypto.Address
	Signature []byte
}

// Certificate proves a block committed: 2f+1 endorser votes for the
// block hash within a given era and view. The sequence number the votes
// also sign is the block header's.
type Certificate struct {
	BlockHash gcrypto.Hash
	Era       uint64
	View      uint64
	Votes     []Vote
}

// CommitVoteBytes returns what an endorser signs to commit blockHash at
// (era, view, seq) — byte for byte what consensus.Seal signs for the
// pbft commit it broadcasts, rebuilt here from what a block and its
// certificate hold, so the commit's one signature is also the
// certificate vote. The message kind sits inside the signed bytes: the
// seal of a prepare for the same slot and digest is a signature over
// other bytes and never passes as a vote.
func CommitVoteBytes(endorser gcrypto.Address, era, view, seq uint64, blockHash gcrypto.Hash) []byte {
	const kindCommit = 4 // consensus.KindCommit
	body := codec.NewWriter(3*binary.MaxVarintLen64 + len(blockHash))
	body.Uvarint(era)
	body.Uvarint(view)
	body.Uvarint(seq)
	body.Raw(blockHash[:])
	w := codec.NewWriter(64 + body.Len())
	w.String("gpbft/envelope/v1")
	w.Uint8(kindCommit)
	w.Raw(endorser[:])
	w.WriteBytes(body.Bytes())
	return w.Bytes()
}

// Errors returned by block and certificate validation.
var (
	ErrBlockTxRoot   = errors.New("types: block tx root does not match transactions")
	ErrCertQuorum    = errors.New("types: certificate lacks a quorum of votes")
	ErrCertBlockHash = errors.New("types: certificate is for a different block")
	ErrCertDupVote   = errors.New("types: certificate has duplicate voter")
)

// Block is a batch of transactions with its header and, once committed,
// the commit certificate.
type Block struct {
	Header BlockHeader
	Txs    []Transaction
	// Cert is attached after commit; nil while in flight.
	Cert *Certificate
}

// ComputeTxRoot returns the Merkle root over the encoded transactions.
// A decoded or pooled transaction brings its leaf digest with it, so
// only the interior nodes are hashed here; any other is encoded and
// hashed in full.
func ComputeTxRoot(txs []Transaction) gcrypto.Hash {
	leaves := make([]gcrypto.Hash, len(txs))
	for i := range txs {
		leaves[i] = txs[i].leafHash()
	}
	return gcrypto.MerkleRootOfLeaves(leaves)
}

// NewBlock assembles a block over txs and fills the TxRoot.
func NewBlock(header BlockHeader, txs []Transaction) *Block {
	header.TxRoot = ComputeTxRoot(txs)
	return &Block{Header: header, Txs: txs}
}

// Hash returns the block identifier.
func (b *Block) Hash() gcrypto.Hash { return b.Header.Hash() }

// SameBlock reports whether a and b are one block: the same pointer, or
// headers that hash alike. Heights are compared first, so telling a
// block from another at a different height hashes nothing.
func SameBlock(a, b *Block) bool {
	return a == b || a != nil && b != nil && a.Header.Height == b.Header.Height && a.Hash() == b.Hash()
}

// VerifyTxRoot recomputes the Merkle root and compares.
func (b *Block) VerifyTxRoot() error {
	if ComputeTxRoot(b.Txs) != b.Header.TxRoot {
		return ErrBlockTxRoot
	}
	return nil
}

// TotalFees sums the transaction fees, the pot the incentive mechanism
// splits 70/30 (Section III-B5).
func (b *Block) TotalFees() uint64 {
	var sum uint64
	for i := range b.Txs {
		sum += b.Txs[i].Fee
	}
	return sum
}

// MarshalCanonical appends the full block encoding.
func (b *Block) MarshalCanonical(w *codec.Writer) {
	b.Header.MarshalCanonical(w)
	w.Count(len(b.Txs))
	for i := range b.Txs {
		b.Txs[i].MarshalCanonical(w)
	}
	if b.Cert != nil {
		w.Bool(true)
		b.Cert.MarshalCanonical(w)
	} else {
		w.Bool(false)
	}
}

// MinBlockSize is the length of the shortest block encoding (a header,
// no transactions, no certificate).
const MinBlockSize = 141

// UnmarshalCanonical decodes a block.
func (b *Block) UnmarshalCanonical(r *codec.Reader) error {
	if err := b.Header.UnmarshalCanonical(r); err != nil {
		return err
	}
	n := r.CountOf(MinTxSize)
	if r.Err() != nil {
		return r.Err()
	}
	b.Txs = make([]Transaction, n)
	for i := 0; i < n; i++ {
		if err := b.Txs[i].UnmarshalCanonical(r); err != nil {
			return err
		}
	}
	if r.Bool() {
		b.Cert = new(Certificate)
		if err := b.Cert.UnmarshalCanonical(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// EncodeBlock returns the wire bytes of b.
func EncodeBlock(b *Block) []byte { return codec.Encode(b) }

// DecodeBlock parses wire bytes into a block.
func DecodeBlock(data []byte) (*Block, error) {
	r := codec.NewReader(data)
	var b Block
	if err := b.UnmarshalCanonical(r); err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &b, nil
}

// MarshalCanonical appends the certificate encoding.
func (c *Certificate) MarshalCanonical(w *codec.Writer) {
	w.Raw(c.BlockHash[:])
	w.Uint64(c.Era)
	w.Uint64(c.View)
	w.Count(len(c.Votes))
	for i := range c.Votes {
		w.Raw(c.Votes[i].Endorser[:])
		w.WriteBytes(c.Votes[i].Signature)
	}
}

// UnmarshalCanonical decodes a certificate.
func (c *Certificate) UnmarshalCanonical(r *codec.Reader) error {
	r.RawInto(c.BlockHash[:])
	c.Era = r.Uint64()
	c.View = r.Uint64()
	n := r.CountOf(gcrypto.AddressSize + 1) // an endorser, then at least a signature's length
	if r.Err() != nil {
		return r.Err()
	}
	c.Votes = make([]Vote, n)
	for i := 0; i < n; i++ {
		r.RawInto(c.Votes[i].Endorser[:])
		c.Votes[i].Signature = r.ReadBytes()
	}
	return r.Err()
}

// Verify checks the certificate against a block's hash and sequence
// number and the committee key set: each vote must come from a distinct
// committee member with a valid signature, and there must be at least
// quorum votes.
func (c *Certificate) Verify(blockHash gcrypto.Hash, seq uint64, keys map[gcrypto.Address]gcrypto.PublicKey, quorum int) error {
	if c.BlockHash != blockHash {
		return ErrCertBlockHash
	}
	seen := make(map[gcrypto.Address]bool, len(c.Votes))
	items := make([]gcrypto.BatchItem, 0, len(c.Votes))
	keys2 := make([]gcrypto.Hash, 0, len(c.Votes))
	valid := 0
	useCache := sigCacheUsable()
	for i := range c.Votes {
		v := &c.Votes[i]
		if seen[v.Endorser] {
			return ErrCertDupVote
		}
		seen[v.Endorser] = true
		pub, ok := keys[v.Endorser]
		if !ok {
			continue // not a committee member this era
		}
		// Votes the consensus tally already accepted (see NoteVote) are
		// served from the cache; only the rest hit the verification pool.
		msg := CommitVoteBytes(v.Endorser, c.Era, c.View, seq, c.BlockHash)
		if useCache {
			key := voteCacheKey(v.Endorser, msg, v.Signature)
			if sigCacheLookup(key) {
				valid++
				continue
			}
			keys2 = append(keys2, key)
		}
		items = append(items, gcrypto.BatchItem{Pub: pub, Addr: v.Endorser, Msg: msg, Sig: v.Signature})
	}
	// The per-vote checks fan out over the verification pool; a vote
	// counts toward quorum iff the serial check would have accepted it.
	for k, err := range gcrypto.VerifyBatch(items) {
		if err == nil {
			valid++
			if useCache {
				sigCacheStore(keys2[k])
			}
		}
	}
	if valid < quorum {
		return fmt.Errorf("%w: %d/%d", ErrCertQuorum, valid, quorum)
	}
	return nil
}
