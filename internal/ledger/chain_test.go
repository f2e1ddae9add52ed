package ledger

import (
	"errors"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/types"
)

// signedTx builds a signed normal transaction from deterministic key i.
func signedTx(i int, nonce uint64, fee uint64) types.Transaction {
	kp := gcrypto.DeterministicKeyPair(i)
	tx := types.Transaction{
		Type:    types.TxNormal,
		Nonce:   nonce,
		Payload: []byte("reading"),
		Fee:     fee,
		Geo: types.GeoInfo{
			Location:  geo.Point{Lng: 114.1795, Lat: 22.3050},
			Timestamp: tableEpoch.Add(time.Duration(nonce) * time.Second),
		},
	}
	tx.Sign(kp)
	return tx
}

// nextBlock builds a valid next block on top of c's head.
func nextBlock(c *Chain, txs []types.Transaction, proposerIdx int) *types.Block {
	head := c.Head()
	return types.NewBlock(types.BlockHeader{
		Height:    head.Header.Height + 1,
		Era:       head.Header.Era,
		Seq:       head.Header.Height + 1,
		PrevHash:  head.Hash(),
		Proposer:  gcrypto.DeterministicKeyPair(proposerIdx).Address(),
		Timestamp: tableEpoch.Add(time.Duration(head.Header.Height+1) * time.Second),
	}, txs)
}

func TestNewChain(t *testing.T) {
	c, err := NewChain(testGenesis(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.Height() != 0 {
		t.Fatalf("height %d", c.Height())
	}
	if len(c.Endorsers()) != 4 {
		t.Fatalf("endorsers %d", len(c.Endorsers()))
	}
	if !c.IsEndorser(gcrypto.DeterministicKeyPair(0).Address()) {
		t.Fatal("genesis endorser missing")
	}
}

func TestNewChainBadGenesis(t *testing.T) {
	g := testGenesis(t, 4)
	g.ChainID = ""
	if _, err := NewChain(g); !errors.Is(err, ErrBadGenesis) {
		t.Fatalf("want ErrBadGenesis, got %v", err)
	}
}

func TestAddBlockHappyPath(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	b := nextBlock(c, []types.Transaction{signedTx(0, 1, 10)}, 0)
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if c.Height() != 1 {
		t.Fatalf("height %d", c.Height())
	}
	got, err := c.BlockAt(1)
	if err != nil || got.Hash() != b.Hash() {
		t.Fatal("BlockAt(1) mismatch")
	}
	if _, ok := c.ByHash(b.Hash()); !ok {
		t.Fatal("ByHash miss")
	}
	// Geo info feeds the election table.
	addr := gcrypto.DeterministicKeyPair(0).Address().String()
	if len(c.Table().History(addr)) != 1 {
		t.Fatal("tx geo info not chained into election table")
	}
}

func TestAddBlockRejections(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	good := nextBlock(c, nil, 0)
	if err := c.AddBlock(good); err != nil {
		t.Fatal(err)
	}

	// Duplicate.
	if err := c.AddBlock(good); !errors.Is(err, ErrDuplicateBlock) {
		t.Errorf("duplicate: %v", err)
	}

	// Height gap.
	gap := nextBlock(c, nil, 0)
	gap.Header.Height = 5
	if err := c.AddBlock(gap); !errors.Is(err, ErrHeightGap) {
		t.Errorf("gap: %v", err)
	}

	// Bad prev hash.
	badPrev := nextBlock(c, nil, 0)
	badPrev.Header.PrevHash = gcrypto.HashBytes([]byte("bogus"))
	if err := c.AddBlock(badPrev); !errors.Is(err, ErrPrevHash) {
		t.Errorf("prev hash: %v", err)
	}

	// Era regression.
	reg := nextBlock(c, nil, 0)
	reg.Header.Era = 0
	c2, _ := NewChain(testGenesis(t, 4))
	e1 := nextBlock(c2, nil, 0)
	e1.Header.Era = 2
	if err := c2.AddBlock(e1); err != nil {
		t.Fatal(err)
	}
	e0 := nextBlock(c2, nil, 0)
	e0.Header.Era = 1
	if err := c2.AddBlock(e0); !errors.Is(err, ErrEraRegressed) {
		t.Errorf("era regression: %v", err)
	}
	_ = reg

	// Tampered tx root.
	tam := nextBlock(c, []types.Transaction{signedTx(0, 2, 1)}, 0)
	tam.Txs[0].Fee = 999
	if err := c.AddBlock(tam); !errors.Is(err, types.ErrBlockTxRoot) {
		t.Errorf("tx root: %v", err)
	}

	// Invalid tx signature.
	badTx := signedTx(0, 3, 1)
	badTx.Signature[0] ^= 0xFF
	inv := nextBlock(c, []types.Transaction{badTx}, 0)
	if err := c.AddBlock(inv); !errors.Is(err, ErrTxInvalid) {
		t.Errorf("invalid tx: %v", err)
	}
}

func TestAddBlockForkDetection(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	a := nextBlock(c, nil, 0)
	if err := c.AddBlock(a); err != nil {
		t.Fatal(err)
	}
	// A different block at the committed height is a fork.
	b := nextBlock(c, []types.Transaction{signedTx(1, 1, 1)}, 1)
	b.Header.Height = 1
	b.Header.PrevHash = a.Header.PrevHash
	if err := c.AddBlock(b); !errors.Is(err, ErrForkDetected) {
		t.Fatalf("want ErrForkDetected, got %v", err)
	}
	forks := c.Forks()
	if len(forks) != 1 {
		t.Fatalf("fork evidence count %d", len(forks))
	}
	if forks[0].Height != 1 || forks[0].Proposer != gcrypto.DeterministicKeyPair(1).Address() {
		t.Fatalf("fork evidence %+v", forks[0])
	}
}

func TestConfigTxOnlyFromEndorser(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	change := &types.ConfigChange{NewEra: 1}
	// Key 99 is not a genesis endorser.
	outsider := gcrypto.DeterministicKeyPair(99)
	tx := types.Transaction{
		Type:    types.TxConfig,
		Nonce:   1,
		Payload: types.EncodeConfigChange(change),
		Geo: types.GeoInfo{
			Location:  geo.Point{Lng: 114.1795, Lat: 22.3050},
			Timestamp: tableEpoch,
		},
	}
	tx.Sign(outsider)
	b := nextBlock(c, []types.Transaction{tx}, 0)
	if err := c.AddBlock(b); !errors.Is(err, ErrConfigSender) {
		t.Fatalf("want ErrConfigSender, got %v", err)
	}
}

func TestConfigTxAppliesCommitteeDelta(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	newKp := gcrypto.DeterministicKeyPair(50)
	oldAddr := gcrypto.DeterministicKeyPair(3).Address()
	change := &types.ConfigChange{
		NewEra: 1,
		Add: []types.EndorserInfo{{
			Address: newKp.Address(),
			PubKey:  newKp.Public(),
			Geohash: geo.MustEncode(fixedSpot, geo.CSCPrecision),
		}},
		Remove: []gcrypto.Address{oldAddr},
	}
	tx := types.Transaction{
		Type:    types.TxConfig,
		Nonce:   1,
		Payload: types.EncodeConfigChange(change),
		Geo: types.GeoInfo{
			Location:  geo.Point{Lng: 114.1795, Lat: 22.3050},
			Timestamp: tableEpoch,
		},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(0)) // endorser proposes
	b := nextBlock(c, []types.Transaction{tx}, 0)
	b.Header.Era = 1
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if c.IsEndorser(oldAddr) {
		t.Error("removed endorser still present")
	}
	if !c.IsEndorser(newKp.Address()) {
		t.Error("added endorser missing")
	}
	keys := c.EndorserKeys()
	if len(keys) != 4 {
		t.Fatalf("committee size %d, want 4", len(keys))
	}
}

func TestConfigTxRespectsBlacklistAndMax(t *testing.T) {
	g := testGenesis(t, 4)
	banned := gcrypto.DeterministicKeyPair(60)
	g.Policy.Blacklist = []gcrypto.Address{banned.Address()}
	g.Policy.MaxEndorsers = 5
	c, _ := NewChain(g)

	mk := func(i int) types.EndorserInfo {
		kp := gcrypto.DeterministicKeyPair(i)
		return types.EndorserInfo{Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(fixedSpot, geo.CSCPrecision)}
	}
	change := &types.ConfigChange{
		NewEra: 1,
		Add:    []types.EndorserInfo{mk(60), mk(61), mk(62)},
	}
	tx := types.Transaction{
		Type: types.TxConfig, Nonce: 1,
		Payload: types.EncodeConfigChange(change),
		Geo:     types.GeoInfo{Location: fixedSpot, Timestamp: tableEpoch},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(0))
	b := nextBlock(c, []types.Transaction{tx}, 0)
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if c.IsEndorser(banned.Address()) {
		t.Error("blacklisted node admitted")
	}
	if got := len(c.Endorsers()); got != 5 {
		t.Errorf("committee size %d, want capped at 5", got)
	}
}

func TestRegionEnforcedOnTxs(t *testing.T) {
	g := testGenesis(t, 4)
	g.Policy.Region = geo.NewRegion(geo.Point{Lng: 114, Lat: 22}, geo.Point{Lng: 115, Lat: 23})
	c, _ := NewChain(g)
	tx := signedTx(0, 1, 1) // inside
	if err := c.AddBlock(nextBlock(c, []types.Transaction{tx}, 0)); err != nil {
		t.Fatal(err)
	}
	outside := types.Transaction{
		Type: types.TxNormal, Nonce: 2, Payload: []byte("x"),
		Geo: types.GeoInfo{Location: geo.Point{Lng: 10, Lat: 10}, Timestamp: tableEpoch},
	}
	outside.Sign(gcrypto.DeterministicKeyPair(0))
	if err := c.AddBlock(nextBlock(c, []types.Transaction{outside}, 0)); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("out-of-region tx: %v", err)
	}
}

func TestBlockAtUnknownHeight(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	if _, err := c.BlockAt(9); !errors.Is(err, ErrUnknownHeight) {
		t.Fatalf("want ErrUnknownHeight, got %v", err)
	}
}

func TestBlocksSnapshot(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	c.AddBlock(nextBlock(c, nil, 0))
	bs := c.Blocks()
	if len(bs) != 2 || bs[0].Header.Height != 0 || bs[1].Header.Height != 1 {
		t.Fatalf("Blocks() = %d entries", len(bs))
	}
}

func TestProposerTimerResetOnBlock(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	proposer := gcrypto.DeterministicKeyPair(0)
	// Seed the table with residency.
	c.Table().Record(geo.Report{Location: fixedSpot, Timestamp: tableEpoch, Address: proposer.Address().String()})
	c.Table().Record(geo.Report{Location: fixedSpot, Timestamp: tableEpoch.Add(10 * time.Hour), Address: proposer.Address().String()})
	if c.Table().Timer(proposer.Address().String()) != 10*time.Hour {
		t.Fatal("precondition")
	}
	b := nextBlock(c, nil, 0)
	b.Header.Timestamp = tableEpoch.Add(10 * time.Hour)
	if err := c.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if got := c.Table().Timer(proposer.Address().String()); got != 0 {
		t.Fatalf("proposer timer %v after block, want 0 (incentive reset)", got)
	}
}

// TestCertQuorumGeneralized: at n = 6 (not of the 3f+1 form) the safe
// quorum is 4, not 2f+1 = 3 — a 3-vote certificate must be rejected.
func TestCertQuorumGeneralized(t *testing.T) {
	g := testGenesis(t, 6)
	c, err := NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	b := nextBlock(c, nil, 0)
	hash := b.Hash()
	vote := func(i int) types.Vote {
		kp := gcrypto.DeterministicKeyPair(i)
		return types.Vote{Endorser: kp.Address(), Signature: kp.Sign(types.CommitVoteBytes(kp.Address(), 0, 0, b.Header.Seq, hash))}
	}
	b.Cert = &types.Certificate{BlockHash: hash, Era: 0, View: 0,
		Votes: []types.Vote{vote(0), vote(1), vote(2)}}
	if err := c.ValidateBlock(b); err == nil {
		t.Fatal("3-vote certificate accepted at n=6 (needs 4)")
	}
	b.Cert.Votes = append(b.Cert.Votes, vote(3))
	if err := c.ValidateBlock(b); err != nil {
		t.Fatalf("4-vote certificate rejected: %v", err)
	}
}
