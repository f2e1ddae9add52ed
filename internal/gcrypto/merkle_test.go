package gcrypto

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func leavesOf(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("tx-%d", i))
	}
	return out
}

func TestMerkleEmpty(t *testing.T) {
	if _, err := NewMerkleTree(nil); err != ErrEmptyTree {
		t.Fatalf("want ErrEmptyTree, got %v", err)
	}
	if !MerkleRoot(nil).IsZero() {
		t.Fatal("root of empty leaf set must be the zero hash")
	}
}

func TestMerkleSingleLeaf(t *testing.T) {
	tr, err := NewMerkleTree(leavesOf(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len=%d", tr.Len())
	}
	p, err := tr.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 0 {
		t.Fatalf("single leaf proof should be empty, got %d steps", len(p.Steps))
	}
	if !VerifyProof(tr.Root(), []byte("tx-0"), p) {
		t.Fatal("single-leaf proof failed")
	}
}

func TestMerkleProofsAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := leavesOf(n)
		tr, err := NewMerkleTree(leaves)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p, err := tr.Prove(i)
			if err != nil {
				t.Fatalf("n=%d Prove(%d): %v", n, i, err)
			}
			if !VerifyProof(tr.Root(), leaves[i], p) {
				t.Fatalf("n=%d leaf %d: proof rejected", n, i)
			}
			// Proof must fail for a different payload.
			if VerifyProof(tr.Root(), []byte("forged"), p) {
				t.Fatalf("n=%d leaf %d: forged payload accepted", n, i)
			}
		}
	}
}

func TestMerkleProofIndexErrors(t *testing.T) {
	tr, _ := NewMerkleTree(leavesOf(4))
	if _, err := tr.Prove(-1); err != ErrProofIndex {
		t.Errorf("Prove(-1): %v", err)
	}
	if _, err := tr.Prove(4); err != ErrProofIndex {
		t.Errorf("Prove(4): %v", err)
	}
}

func TestMerkleRootChangesWithAnyLeaf(t *testing.T) {
	base := leavesOf(9)
	root := MerkleRoot(base)
	for i := range base {
		mutated := leavesOf(9)
		mutated[i] = []byte("mutated")
		if MerkleRoot(mutated) == root {
			t.Fatalf("mutating leaf %d did not change root", i)
		}
	}
}

func TestMerkleOrderMatters(t *testing.T) {
	a := MerkleRoot([][]byte{[]byte("x"), []byte("y")})
	b := MerkleRoot([][]byte{[]byte("y"), []byte("x")})
	if a == b {
		t.Fatal("leaf order must affect the root")
	}
}

func TestMerkleDomainSeparation(t *testing.T) {
	// The root of [h(a)||h(b)] as a single leaf must not equal the root
	// of [a, b]: leaf and node hashing are domain separated.
	la, lb := LeafHash([]byte("a")), LeafHash([]byte("b"))
	spliced := MerkleRoot([][]byte{append(la[:], lb[:]...)})
	honest := MerkleRoot([][]byte{[]byte("a"), []byte("b")})
	if spliced == honest {
		t.Fatal("second-preimage splice must not reproduce the root")
	}
}

// Property: for random leaf sets, every leaf proof verifies and no
// proof verifies under a different leaf's data.
func TestMerkleProofProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 2
		rng := rand.New(rand.NewSource(seed))
		leaves := make([][]byte, n)
		for i := range leaves {
			b := make([]byte, 8+rng.Intn(24))
			rng.Read(b)
			leaves[i] = b
		}
		tr, err := NewMerkleTree(leaves)
		if err != nil {
			return false
		}
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		p, err := tr.Prove(i)
		if err != nil {
			return false
		}
		if !VerifyProof(tr.Root(), leaves[i], p) {
			return false
		}
		if string(leaves[i]) != string(leaves[j]) && VerifyProof(tr.Root(), leaves[j], p) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// MerkleRoot and MerkleRootOfLeaves fold to the tree's root at every
// size, odd promotions included.
func TestMerkleRootsMatchTree(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := leavesOf(n)
		tr, err := NewMerkleTree(leaves)
		if err != nil {
			t.Fatal(err)
		}
		hashes := make([]Hash, n)
		for i, l := range leaves {
			hashes[i] = LeafHash(l)
		}
		if MerkleRoot(leaves) != tr.Root() || MerkleRootOfLeaves(hashes) != tr.Root() {
			t.Fatalf("n=%d: root mismatch", n)
		}
		if hashes[0] != LeafHash(leaves[0]) {
			t.Fatalf("n=%d: MerkleRootOfLeaves overwrote its input", n)
		}
	}
	if !MerkleRootOfLeaves(nil).IsZero() {
		t.Fatal("root of no leaf digests must be the zero hash")
	}
}
