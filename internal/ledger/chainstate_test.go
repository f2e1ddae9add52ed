package ledger

import (
	"bytes"
	"errors"
	"testing"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// grow commits n blocks (one signed tx each) on top of c.
func grow(t *testing.T, c *Chain, n int) []*types.Block {
	t.Helper()
	var out []*types.Block
	for i := 0; i < n; i++ {
		nonce := c.Height() + 1
		b := nextBlock(c, []types.Transaction{signedTx(0, nonce, 1)}, 0)
		if err := c.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestChainStateRoundTrip(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	grow(t, c, 3)
	st := c.ExportState()
	got, err := DecodeChainState(EncodeChainState(st))
	if err != nil {
		t.Fatal(err)
	}
	if got.Root() != st.Root() {
		t.Fatal("round trip changed the state root")
	}
	if got.Height() != 3 || got.Era != st.Era || got.GenesisHash != st.GenesisHash {
		t.Fatalf("round trip mangled header fields: %+v", got)
	}
	// Trailing bytes are rejected — one state, nothing else.
	if _, err := DecodeChainState(append(EncodeChainState(st), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestExportStateCertIndependent is the determinism core of snapshot
// trust: the exported bytes must not depend on which commit
// certificate (if any) a node stored with the checkpoint block, since
// every node aggregates a different 2f+1 vote subset.
func TestExportStateCertIndependent(t *testing.T) {
	g := testGenesis(t, 4)
	bare, _ := NewChain(g)
	certed, _ := NewChain(g)

	b := nextBlock(bare, []types.Transaction{signedTx(0, 1, 1)}, 0)
	if err := bare.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	withCert := *b
	hash := b.Hash()
	vote := func(i int) types.Vote {
		kp := gcrypto.DeterministicKeyPair(i)
		return types.Vote{Endorser: kp.Address(), Signature: kp.Sign(types.CommitVoteBytes(kp.Address(), 0, 0, b.Header.Seq, hash))}
	}
	withCert.Cert = &types.Certificate{BlockHash: hash, Era: 0, View: 0,
		Votes: []types.Vote{vote(0), vote(1), vote(2)}}
	if err := certed.AddBlock(&withCert); err != nil {
		t.Fatal(err)
	}

	a, bb := EncodeChainState(bare.ExportState()), EncodeChainState(certed.ExportState())
	if !bytes.Equal(a, bb) {
		t.Fatal("exported state differs depending on the stored certificate")
	}
	if certed.ExportState().Base.Cert != nil {
		t.Fatal("exported base block still carries a certificate")
	}
}

func TestRestoreChainRejectsWrongGenesis(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	grow(t, c, 2)
	st := c.ExportState()
	other := testGenesis(t, 4)
	other.ChainID = "another-chain"
	if _, err := RestoreChain(other, st); !errors.Is(err, ErrStateGenesis) {
		t.Fatalf("want ErrStateGenesis, got %v", err)
	}
}

func TestRestoreChainRejectsTamperedBase(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	grow(t, c, 2)
	st := c.ExportState()
	st.Base.Txs[0].Fee = 999 // breaks the tx root
	if _, err := RestoreChain(c.genesis, st); !errors.Is(err, ErrStateShape) {
		t.Fatalf("want ErrStateShape, got %v", err)
	}
}

func TestRestoreChainRejectsIndexBeyondCheckpoint(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	grow(t, c, 2)
	st := c.ExportState()
	st.TxIndex[0].Loc.Height = st.Height() + 7
	if _, err := RestoreChain(c.genesis, st); !errors.Is(err, ErrStateShape) {
		t.Fatalf("want ErrStateShape, got %v", err)
	}
}

// TestRestoreThenTailMatchesReplay: a chain restored from a mid-point
// snapshot and fed the remaining blocks must converge to the same root
// as the chain that replayed everything from genesis.
func TestRestoreThenTailMatchesReplay(t *testing.T) {
	g := testGenesis(t, 4)
	full, _ := NewChain(g)
	blocks := grow(t, full, 6)

	replay, _ := NewChain(g)
	for _, b := range blocks[:3] {
		if err := replay.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	restored, err := RestoreChain(g, replay.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Height() != 3 || restored.BaseHeight() != 3 {
		t.Fatalf("restored height=%d base=%d", restored.Height(), restored.BaseHeight())
	}
	for _, b := range blocks[3:] {
		if err := restored.AddBlock(b); err != nil {
			t.Fatalf("tail block %d: %v", b.Header.Height, err)
		}
	}
	if restored.ExportState().Root() != full.ExportState().Root() {
		t.Fatal("restored+tailed root differs from fully replayed root")
	}
}

func TestInstallStateFastForward(t *testing.T) {
	g := testGenesis(t, 4)
	ahead, _ := NewChain(g)
	grow(t, ahead, 5)
	st := ahead.ExportState()

	lag, _ := NewChain(g)
	grow(t, lag, 1)
	if err := lag.InstallState(st); err != nil {
		t.Fatal(err)
	}
	if lag.Height() != 5 || lag.BaseHeight() != 5 {
		t.Fatalf("after install height=%d base=%d", lag.Height(), lag.BaseHeight())
	}
	if lag.ExportState().Root() != st.Root() {
		t.Fatal("installed chain exports a different root")
	}
	// History below the checkpoint is gone.
	if _, err := lag.BlockAt(2); err == nil {
		t.Fatal("pre-checkpoint block still reachable")
	}
}

func TestInstallStateRejectsStale(t *testing.T) {
	g := testGenesis(t, 4)
	ahead, _ := NewChain(g)
	grow(t, ahead, 4)
	st := ahead.ExportState()

	same, _ := NewChain(g)
	grow(t, same, 4)
	if err := same.InstallState(st); !errors.Is(err, ErrStateStale) {
		t.Fatalf("want ErrStateStale at equal height, got %v", err)
	}
	grow(t, same, 1)
	if err := same.InstallState(st); !errors.Is(err, ErrStateStale) {
		t.Fatalf("want ErrStateStale behind head, got %v", err)
	}
}

func TestCompactBelow(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	blocks := grow(t, c, 5)
	c.CompactBelow(3)
	if c.BaseHeight() != 3 {
		t.Fatalf("base %d, want 3", c.BaseHeight())
	}
	if _, err := c.BlockAt(2); err == nil {
		t.Fatal("compacted block still reachable by height")
	}
	if _, ok := c.ByHash(blocks[1].Hash()); ok {
		t.Fatal("compacted block still reachable by hash")
	}
	for h := uint64(3); h <= 5; h++ {
		if _, err := c.BlockAt(h); err != nil {
			t.Fatalf("kept block %d unreachable: %v", h, err)
		}
	}
	// The chain still extends normally after compaction.
	grow(t, c, 1)
	if c.Height() != 6 {
		t.Fatalf("height %d after post-compaction append", c.Height())
	}
	// Compacting past the head clamps to the head instead of emptying.
	c.CompactBelow(99)
	if c.BaseHeight() != 6 || c.Height() != 6 {
		t.Fatalf("clamp failed: base=%d height=%d", c.BaseHeight(), c.Height())
	}
}
