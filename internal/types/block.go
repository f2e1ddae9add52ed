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

// Canonical states the header's format.
func (h *BlockHeader) Canonical(c codec.Coder) {
	c.Tag("gpbft/block/v1", errBlockTag)
	c.Uint64(&h.Height)
	c.Uint64(&h.Era)
	c.Uint64(&h.View)
	c.Uint64(&h.Seq)
	c.Raw(h.PrevHash[:])
	c.Raw(h.TxRoot[:])
	c.Raw(h.Proposer[:])
	c.Time(&h.Timestamp)
}

// UnmarshalCanonical decodes a header.
func (h *BlockHeader) UnmarshalCanonical(r *codec.Reader) error { return codec.Read(r, h) }

// Hash returns the block identifier: the digest of the header.
func (h *BlockHeader) Hash() gcrypto.Hash {
	return gcrypto.HashBytes(codec.Marshal(h))
}

// Vote is one endorser's commit vote for a block: the seal of the commit
// envelope it sent (see CommitVoteBytes).
type Vote struct {
	Endorser  gcrypto.Address
	Signature []byte
}

// Canonical states the vote's format.
func (v *Vote) Canonical(c codec.Coder) {
	c.Raw(v.Endorser[:])
	c.Bytes(&v.Signature)
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
	const (
		domain     = "gpbft/envelope/v1"
		kindCommit = 4 // consensus.KindCommit
	)
	var body [3*binary.MaxVarintLen64 + len(blockHash)]byte
	bb := binary.AppendUvarint(body[:0], era)
	bb = binary.AppendUvarint(bb, view)
	bb = binary.AppendUvarint(bb, seq)
	bb = append(bb, blockHash[:]...)
	w := make([]byte, 0, 2*binary.MaxVarintLen64+len(domain)+1+len(endorser)+len(bb))
	w = binary.AppendUvarint(w, uint64(len(domain)))
	w = append(w, domain...)
	w = append(w, kindCommit)
	w = append(w, endorser[:]...)
	w = binary.AppendUvarint(w, uint64(len(bb)))
	return append(w, bb...)
}

// Errors returned by block and certificate validation.
var (
	ErrBlockTxRoot   = errors.New("types: block tx root does not match transactions")
	ErrCertQuorum    = errors.New("types: certificate lacks a quorum of votes")
	ErrCertBlockHash = errors.New("types: certificate is for a different block")
	ErrCertDupVote   = errors.New("types: certificate has duplicate voter")
	errBlockTag      = errors.New("types: bad block tag")
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

// Canonical states the block's format: the header, the transactions,
// and the certificate if one is attached.
func (b *Block) Canonical(c codec.Coder) {
	b.Header.Canonical(c)
	codec.List(c, &b.Txs, MinTxSize, (*Transaction).Canonical)
	codec.Optional(c, &b.Cert, (*Certificate).Canonical)
}

// MinBlockSize is the length of the shortest block encoding (a header,
// no transactions, no certificate).
const MinBlockSize = 141

// EncodeBlock returns the wire bytes of b.
func EncodeBlock(b *Block) []byte { return codec.Marshal(b) }

// DecodeBlock parses wire bytes into a block.
func DecodeBlock(data []byte) (*Block, error) { return codec.Unmarshal[Block](data) }

// Canonical states the certificate's format.
func (cert *Certificate) Canonical(c codec.Coder) {
	c.Raw(cert.BlockHash[:])
	c.Uint64(&cert.Era)
	c.Uint64(&cert.View)
	codec.List(c, &cert.Votes, gcrypto.AddressSize+1, (*Vote).Canonical) // an endorser, then at least a signature's length
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
	// Only votes the cache cannot vouch for are batched; once consensus
	// has noted them all, nothing is.
	var (
		items []gcrypto.BatchItem
		keys2 []gcrypto.Hash
	)
	valid := 0
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
		key := voteCacheKey(v.Endorser, msg, v.Signature)
		if sigCacheLookup(key) {
			valid++
			continue
		}
		keys2 = append(keys2, key)
		items = append(items, gcrypto.BatchItem{Pub: pub, Addr: v.Endorser, Msg: msg, Sig: v.Signature})
	}
	// The per-vote checks fan out over the verification pool; a vote
	// counts toward quorum iff the serial check would have accepted it.
	for k, err := range gcrypto.VerifyBatch(items) {
		if err == nil {
			valid++
			sigCacheStore(keys2[k])
		}
	}
	if valid < quorum {
		return fmt.Errorf("%w: %d/%d", ErrCertQuorum, valid, quorum)
	}
	return nil
}
