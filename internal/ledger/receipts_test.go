package ledger

import (
	"errors"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/shard"
	"gpbft/internal/types"
)

var testSpot = geo.Point{Lng: 114.1795, Lat: 22.3050}

func testPrefixes(t *testing.T) (src, dst string) {
	t.Helper()
	src = geo.MustEncode(testSpot, shard.DefaultPrefixLen)
	nb, err := geo.Neighbors(src)
	if err != nil || len(nb) == 0 {
		t.Fatalf("Neighbors(%q): %v", src, err)
	}
	return src, nb[0]
}

// fundedGenesis is testGenesis with every endorser endowed: transfer
// locks debit the sender, so lock tests need funded senders.
func fundedGenesis(t testing.TB, n int, endowment uint64) *Genesis {
	t.Helper()
	g := testGenesis(t, n)
	g.Policy.EndorserEndowment = endowment
	return g
}

// shardTx builds a signed transaction of the given type from key i.
func shardTx(i int, nonce uint64, typ types.TxType, payload []byte) types.Transaction {
	kp := gcrypto.DeterministicKeyPair(i)
	tx := types.Transaction{
		Type:    typ,
		Nonce:   nonce,
		Payload: payload,
		Fee:     1,
		Geo: types.GeoInfo{
			Location:  testSpot,
			Timestamp: tableEpoch.Add(time.Duration(nonce) * time.Second),
		},
	}
	tx.Sign(kp)
	return tx
}

func TestTransferLockMintsReceipt(t *testing.T) {
	src, dst := testPrefixes(t)
	c, _ := NewChain(fundedGenesis(t, 4, 100))
	sender := gcrypto.DeterministicKeyPair(0).Address()
	recipient := gcrypto.DeterministicKeyPair(99).Address()
	lock := shardTx(0, 1, types.TxTransferLock, shard.EncodeTransfer(&shard.Transfer{
		Source: src, Dest: dst, Recipient: recipient, Amount: 25,
	}))
	// Proposer 1, so the sender collects no fee share (3 endorsers
	// split 0 each) and the debit is exact.
	if err := c.AddBlock(nextBlock(c, []types.Transaction{lock}, 1)); err != nil {
		t.Fatal(err)
	}
	out := c.OutboundReceipts(0)
	if len(out) != 1 {
		t.Fatalf("outbound receipts: %d", len(out))
	}
	rc := out[0]
	if rc.ID != lock.ID() || rc.Dest != dst || rc.Amount != 25 || rc.LockHeight != 1 {
		t.Fatalf("receipt %+v", rc)
	}
	// The lock debited the sender: value moved, it was not minted.
	if got := c.Rewards().Balance(sender); got != 75 {
		t.Fatalf("sender balance after lock: %d, want 75", got)
	}
	if got := c.OutboundReceipts(1); len(got) != 0 {
		t.Fatalf("since=lockHeight should exclude: %d", len(got))
	}
	// Malformed lock payloads are refused at validation.
	bad := shardTx(0, 2, types.TxTransferLock, []byte("junk"))
	if err := c.AddBlock(nextBlock(c, []types.Transaction{bad}, 0)); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("bad lock payload: %v", err)
	}
}

func TestTransferLockInsufficientFunds(t *testing.T) {
	src, dst := testPrefixes(t)
	c, _ := NewChain(fundedGenesis(t, 4, 100))
	sender := gcrypto.DeterministicKeyPair(0).Address()
	recipient := gcrypto.DeterministicKeyPair(99).Address()
	over := shardTx(0, 1, types.TxTransferLock, shard.EncodeTransfer(&shard.Transfer{
		Source: src, Dest: dst, Recipient: recipient, Amount: 1000,
	}))
	// Balances are stateful, so the block commits — but the over-balance
	// lock is a counted no-op: no debit, no receipt.
	if err := c.AddBlock(nextBlock(c, []types.Transaction{over}, 1)); err != nil {
		t.Fatal(err)
	}
	if got := c.OutboundCount(); got != 0 {
		t.Fatalf("over-balance lock minted %d receipts", got)
	}
	if got := c.LockRejects(); got != 1 {
		t.Fatalf("lock rejects: %d", got)
	}
	if got := c.Rewards().Balance(sender); got != 100 {
		t.Fatalf("sender balance after refused lock: %d, want 100", got)
	}
}

func TestTransferRegionPinning(t *testing.T) {
	src, dst := testPrefixes(t)
	recipient := gcrypto.DeterministicKeyPair(99).Address()

	// A chain pinned to src refuses a lock sourced elsewhere: its
	// receipt could never ride a valid checkpoint of this region.
	c, _ := NewChain(fundedGenesis(t, 4, 100))
	c.SetShardPrefix(src)
	foreign := shardTx(0, 1, types.TxTransferLock, shard.EncodeTransfer(&shard.Transfer{
		Source: dst, Dest: src, Recipient: recipient, Amount: 5,
	}))
	if err := c.AddBlock(nextBlock(c, []types.Transaction{foreign}, 0)); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("foreign-source lock: %v", err)
	}
	// Admission applies the same rule, so the tx never poisons a pool.
	if err := c.CheckTxAdmissible(&foreign); err == nil {
		t.Fatal("foreign-source lock admitted")
	}

	// And it refuses applying a receipt destined for another region.
	rc := shard.Receipt{
		ID:     gcrypto.HashBytes([]byte("misrouted")),
		Source: src, Dest: dst, Recipient: recipient, Amount: 5, LockHeight: 1,
	}
	misrouted := shardTx(0, 1, types.TxTransferApply, shard.EncodeReceipt(&rc))
	if err := c.AddBlock(nextBlock(c, []types.Transaction{misrouted}, 0)); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("misrouted apply: %v", err)
	}
}

func TestTransferApplyExactlyOnce(t *testing.T) {
	src, dst := testPrefixes(t)
	c, _ := NewChain(testGenesis(t, 4))
	recipient := gcrypto.DeterministicKeyPair(99).Address()
	rc := shard.Receipt{
		ID:     gcrypto.HashBytes([]byte("lock")),
		Source: src, Dest: dst, Recipient: recipient, Amount: 40, LockHeight: 3,
	}
	payload := shard.EncodeReceipt(&rc)
	if err := c.AddBlock(nextBlock(c, []types.Transaction{shardTx(0, 1, types.TxTransferApply, payload)}, 0)); err != nil {
		t.Fatal(err)
	}
	loc, ok := c.ReceiptApplied(rc.ID)
	if !ok || loc.Height != 1 {
		t.Fatalf("applied = %+v, %v", loc, ok)
	}
	if got := c.Rewards().Balance(recipient); got != 40 {
		t.Fatalf("recipient balance %d", got)
	}
	// A second apply of the same receipt (failover retry, different
	// sender and nonce → different tx ID) commits as a no-op: counted,
	// not credited again.
	if err := c.AddBlock(nextBlock(c, []types.Transaction{shardTx(1, 1, types.TxTransferApply, payload)}, 1)); err != nil {
		t.Fatal(err)
	}
	if got := c.Rewards().Balance(recipient); got != 40 {
		t.Fatalf("double-applied: balance %d", got)
	}
	if c.ReceiptDupes() != 1 {
		t.Fatalf("dupes %d", c.ReceiptDupes())
	}
	if c.AppliedReceiptCount() != 1 {
		t.Fatalf("applied count %d", c.AppliedReceiptCount())
	}
}

func TestTransferApplyRequiresEndorser(t *testing.T) {
	src, dst := testPrefixes(t)
	c, _ := NewChain(testGenesis(t, 4))
	rc := shard.Receipt{
		ID:     gcrypto.HashBytes([]byte("forged")),
		Source: src, Dest: dst,
		Recipient: gcrypto.DeterministicKeyPair(99).Address(),
		Amount:    1 << 40, LockHeight: 1,
	}
	// Key 50 is no committee member: a forged receipt from an arbitrary
	// identity must not mint balances.
	forged := shardTx(50, 1, types.TxTransferApply, shard.EncodeReceipt(&rc))
	if err := c.AddBlock(nextBlock(c, []types.Transaction{forged}, 0)); !errors.Is(err, ErrApplySender) {
		t.Fatalf("forged apply: %v", err)
	}
	if err := c.CheckTxAdmissible(&forged); !errors.Is(err, ErrApplySender) {
		t.Fatalf("forged apply admitted: %v", err)
	}
	if got := c.Rewards().Balance(rc.Recipient); got != 0 {
		t.Fatalf("forged apply credited %d", got)
	}
}

func TestConflictingCheckpointsInOneBlock(t *testing.T) {
	src, _ := testPrefixes(t)
	c, _ := NewChain(testGenesis(t, 4))
	a := &shard.RegionCheckpoint{Region: src, Height: 3, Root: gcrypto.HashBytes([]byte("root-a"))}
	b := &shard.RegionCheckpoint{Region: src, Height: 3, Root: gcrypto.HashBytes([]byte("root-b"))}
	// Both roots are new to the anchor index, so each passes the
	// index-based Check alone; the in-block tracker must still refuse
	// the pair riding one block.
	txs := []types.Transaction{
		shardTx(0, 1, types.TxRegionCheckpoint, shard.EncodeCheckpoint(a)),
		shardTx(1, 1, types.TxRegionCheckpoint, shard.EncodeCheckpoint(b)),
	}
	if err := c.AddBlock(nextBlock(c, txs, 0)); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("conflicting in-block checkpoints: %v", err)
	}
	// The identical root twice is merely redundant, not a fork.
	txs = []types.Transaction{
		shardTx(0, 1, types.TxRegionCheckpoint, shard.EncodeCheckpoint(a)),
		shardTx(1, 1, types.TxRegionCheckpoint, shard.EncodeCheckpoint(a)),
	}
	if err := c.AddBlock(nextBlock(c, txs, 0)); err != nil {
		t.Fatalf("duplicate in-block checkpoints: %v", err)
	}
}

func TestRegionCheckpointAnchorsAndRefusesForks(t *testing.T) {
	src, dst := testPrefixes(t)
	c, _ := NewChain(testGenesis(t, 4))
	recipient := gcrypto.DeterministicKeyPair(99).Address()
	rc := shard.Receipt{
		ID:     gcrypto.HashBytes([]byte("lock")),
		Source: src, Dest: dst, Recipient: recipient, Amount: 5, LockHeight: 2,
	}
	cp := &shard.RegionCheckpoint{
		Region: src, Era: 0, Height: 2,
		Root:     gcrypto.HashBytes([]byte("region-head")),
		Receipts: []shard.Receipt{rc},
	}
	// Non-endorser senders are refused.
	outsider := shardTx(50, 1, types.TxRegionCheckpoint, shard.EncodeCheckpoint(cp))
	if err := c.AddBlock(nextBlock(c, []types.Transaction{outsider}, 0)); !errors.Is(err, ErrConfigSender) {
		t.Fatalf("outsider checkpoint: %v", err)
	}
	if err := c.AddBlock(nextBlock(c, []types.Transaction{shardTx(0, 1, types.TxRegionCheckpoint, shard.EncodeCheckpoint(cp))}, 0)); err != nil {
		t.Fatal(err)
	}
	pt, ok := c.AnchorLatest(src)
	if !ok || pt.Height != 2 || pt.Root != cp.Root {
		t.Fatalf("anchored = %+v, %v", pt, ok)
	}
	if !c.AnchorCovered(rc.ID) {
		t.Fatal("receipt not covered")
	}
	// A conflicting root at the same (region, height) is a cross-region
	// fork proof: the block refuses to commit.
	fork := *cp
	fork.Root = gcrypto.HashBytes([]byte("other-head"))
	fork.Receipts = nil
	forkTx := shardTx(1, 1, types.TxRegionCheckpoint, shard.EncodeCheckpoint(&fork))
	if err := c.AddBlock(nextBlock(c, []types.Transaction{forkTx}, 1)); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("fork checkpoint committed: %v", err)
	}
}

func TestReceiptStateSurvivesSnapshot(t *testing.T) {
	src, dst := testPrefixes(t)
	c, _ := NewChain(fundedGenesis(t, 4, 100))
	recipient := gcrypto.DeterministicKeyPair(99).Address()
	lock := shardTx(0, 1, types.TxTransferLock, shard.EncodeTransfer(&shard.Transfer{
		Source: src, Dest: dst, Recipient: recipient, Amount: 9,
	}))
	applyRc := shard.Receipt{
		ID:     gcrypto.HashBytes([]byte("inbound")),
		Source: dst, Dest: src, Recipient: recipient, Amount: 11, LockHeight: 1,
	}
	cp := &shard.RegionCheckpoint{
		Region: src, Height: 1, Root: gcrypto.HashBytes([]byte("h1")),
	}
	txs := []types.Transaction{
		lock,
		shardTx(1, 1, types.TxTransferApply, shard.EncodeReceipt(&applyRc)),
		shardTx(2, 1, types.TxRegionCheckpoint, shard.EncodeCheckpoint(cp)),
	}
	if err := c.AddBlock(nextBlock(c, txs, 0)); err != nil {
		t.Fatal(err)
	}
	st := c.ExportState()
	if len(st.Outbound) != 1 || len(st.Applied) != 1 || len(st.Anchors) != 1 {
		t.Fatalf("export: %d outbound, %d applied, %d anchors", len(st.Outbound), len(st.Applied), len(st.Anchors))
	}
	// Round-trip through the canonical codec.
	dec, err := DecodeChainState(EncodeChainState(st))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Root() != st.Root() {
		t.Fatal("codec round trip changed the root")
	}
	restored, err := RestoreChain(c.Genesis(), dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.OutboundReceipts(0)) != 1 {
		t.Fatal("outbound lost in restore")
	}
	if _, ok := restored.ReceiptApplied(applyRc.ID); !ok {
		t.Fatal("applied index lost in restore")
	}
	if !restored.AnchorCovered(applyRc.ID) && restored.AnchorRegions() == nil {
		t.Fatal("anchor index lost in restore")
	}
	if pt, ok := restored.AnchorLatest(src); !ok || pt.Height != 1 {
		t.Fatalf("restored anchor latest: %+v, %v", pt, ok)
	}
	// The restored chain still refuses the fork.
	fork := &shard.RegionCheckpoint{Region: src, Height: 1, Root: gcrypto.HashBytes([]byte("other"))}
	forkTx := shardTx(0, 2, types.TxRegionCheckpoint, shard.EncodeCheckpoint(fork))
	if err := restored.AddBlock(nextBlock(restored, []types.Transaction{forkTx}, 0)); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("restored chain committed fork: %v", err)
	}
}
