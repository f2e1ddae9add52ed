package gcrypto

import (
	"crypto/sha256"
	"errors"
)

// Merkle trees commit a block to its transaction set. Leaves are hashed
// with a 0x00 domain-separation prefix and interior nodes with 0x01,
// preventing second-preimage attacks that splice subtrees as leaves.
// Odd nodes are promoted (Bitcoin-style duplication is avoided because
// it admits mutation attacks on duplicate leaves).

var (
	// ErrEmptyTree is returned when building a tree over zero leaves.
	ErrEmptyTree = errors.New("gcrypto: merkle tree needs at least one leaf")
	// ErrProofIndex is returned for an out-of-range leaf index.
	ErrProofIndex = errors.New("gcrypto: merkle proof index out of range")
)

var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// MerkleTree is an immutable hash tree over a list of leaf payloads.
type MerkleTree struct {
	levels [][]Hash // levels[0] = leaf hashes, last level = [root]
}

// LeafHash computes the domain-separated digest of one leaf payload.
func LeafHash(data []byte) Hash { return HashConcat(leafPrefix, data) }

// hashNode computes the domain-separated interior digest. Its input has
// a fixed size, so it is assembled on the stack and hashed in one call.
func hashNode(l, r Hash) Hash {
	var b [1 + 2*len(Hash{})]byte
	b[0] = nodePrefix[0]
	copy(b[1:], l[:])
	copy(b[1+len(l):], r[:])
	return sha256.Sum256(b[:])
}

// NewMerkleTree builds the tree over the given leaf payloads.
func NewMerkleTree(leaves [][]byte) (*MerkleTree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmptyTree
	}
	level := make([]Hash, len(leaves))
	for i, l := range leaves {
		level[i] = LeafHash(l)
	}
	return treeOver(level), nil
}

// treeOver builds the tree whose leaf digests are level (at least one);
// level becomes the tree's first level and is not modified.
func treeOver(level []Hash) *MerkleTree {
	t := &MerkleTree{levels: [][]Hash{level}}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				next = append(next, level[i]) // promote odd node
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// MerkleRoot is a convenience that returns just the root of the tree
// over leaves; for zero leaves it returns the zero hash, which is the
// transaction root of an empty block.
func MerkleRoot(leaves [][]byte) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	t, err := NewMerkleTree(leaves)
	if err != nil {
		return Hash{}
	}
	return t.Root()
}

// MerkleRootOfLeaves returns the root of the tree whose leaf digests
// (LeafHash of each payload) are given, without the payloads: the same
// root MerkleRoot computes over them, and the zero hash for none.
func MerkleRootOfLeaves(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	return treeOver(leaves).Root()
}

// Root returns the tree root.
func (t *MerkleTree) Root() Hash {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// Len returns the number of leaves.
func (t *MerkleTree) Len() int { return len(t.levels[0]) }

// ProofStep is one sibling on the path from a leaf to the root.
type ProofStep struct {
	Sibling Hash
	// Left indicates the sibling is the left operand of the parent hash.
	Left bool
}

// Proof is an inclusion proof for a single leaf.
type Proof struct {
	LeafIndex int
	Steps     []ProofStep
}

// Prove returns the inclusion proof for leaf i.
func (t *MerkleTree) Prove(i int) (Proof, error) {
	if i < 0 || i >= t.Len() {
		return Proof{}, ErrProofIndex
	}
	p := Proof{LeafIndex: i}
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		var sib int
		if idx%2 == 0 {
			sib = idx + 1
		} else {
			sib = idx - 1
		}
		if sib < len(level) {
			p.Steps = append(p.Steps, ProofStep{Sibling: level[sib], Left: sib < idx})
		}
		// With odd-node promotion the parent index is always idx/2.
		idx /= 2
	}
	return p, nil
}

// VerifyProof checks that leaf data sits at the proof's position under
// the given root.
func VerifyProof(root Hash, data []byte, p Proof) bool {
	h := LeafHash(data)
	for _, s := range p.Steps {
		if s.Left {
			h = hashNode(s.Sibling, h)
		} else {
			h = hashNode(h, s.Sibling)
		}
	}
	return h == root
}
