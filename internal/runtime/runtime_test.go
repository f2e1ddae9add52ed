package runtime

import (
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

var epoch = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)

func mkTx(i int, nonce uint64) *types.Transaction {
	tx := &types.Transaction{
		Type:    types.TxNormal,
		Nonce:   nonce,
		Payload: []byte{byte(nonce)},
		Fee:     1,
		Geo: types.GeoInfo{
			Location:  geo.Point{Lng: 114.17, Lat: 22.30},
			Timestamp: epoch.Add(time.Duration(nonce) * time.Second),
		},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(i))
	return tx
}

func mkGenesis(t testing.TB, n int) *ledger.Genesis {
	t.Helper()
	g := &ledger.Genesis{ChainID: "rt-test", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	for i := 0; i < n; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114.17, Lat: 22.30}, geo.CSCPrecision),
		})
	}
	return g
}

func TestMempoolAddPeekFIFO(t *testing.T) {
	p := NewMempool(10, nil)
	for i := 0; i < 5; i++ {
		if err := p.Add(mkTx(0, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != 5 {
		t.Fatalf("Len=%d", p.Len())
	}
	got := p.Peek(3)
	if len(got) != 3 {
		t.Fatalf("Peek returned %d", len(got))
	}
	for i := range got {
		if got[i].Nonce != uint64(i) {
			t.Fatal("Peek must preserve FIFO order")
		}
	}
	// Peek does not remove.
	if p.Len() != 5 {
		t.Fatal("Peek must not remove")
	}
	// Peek beyond length returns all.
	if len(p.Peek(100)) != 5 {
		t.Fatal("Peek(100) should return all 5")
	}
}

func TestMempoolDuplicate(t *testing.T) {
	p := NewMempool(10, nil)
	tx := mkTx(0, 1)
	if err := p.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx); err != ErrTxDuplicate {
		t.Fatalf("want ErrTxDuplicate, got %v", err)
	}
	if !p.Contains(tx.ID()) {
		t.Fatal("Contains must report pending tx")
	}
}

func TestMempoolFull(t *testing.T) {
	p := NewMempool(2, nil)
	p.Add(mkTx(0, 1))
	p.Add(mkTx(0, 2))
	if err := p.Add(mkTx(0, 3)); err != ErrPoolFull {
		t.Fatalf("want ErrPoolFull, got %v", err)
	}
}

func TestMempoolMarkCommitted(t *testing.T) {
	p := NewMempool(10, nil)
	tx1, tx2 := mkTx(0, 1), mkTx(0, 2)
	p.Add(tx1)
	p.Add(tx2)
	p.MarkCommitted([]types.Transaction{*tx1})
	if p.Len() != 1 {
		t.Fatalf("Len=%d after commit", p.Len())
	}
	if p.Contains(tx1.ID()) {
		t.Fatal("committed tx must leave the pool")
	}
	if !p.WasCommitted(tx1.ID()) {
		t.Fatal("committed tx must be remembered")
	}
	// Re-adding a committed tx is rejected.
	if err := p.Add(tx1); err != ErrTxDuplicate {
		t.Fatalf("re-add committed: %v", err)
	}
}

func TestMempoolGenerationRotation(t *testing.T) {
	const genLimit = 8 // 4 × capacity, across the whole pool
	p := NewMempool(2, nil)
	var committed []types.Transaction
	for i := 0; i < 30; i++ {
		tx := mkTx(0, uint64(i))
		if err := p.Add(tx); err != nil {
			t.Fatal(err)
		}
		committed = append(committed, *tx)
		p.MarkCommitted(committed[len(committed)-1:])
	}
	// The newest genLimit+1 commits are always remembered, even right
	// after a rotation, and never more than two generations' worth.
	remembered := 0
	for i := range committed {
		if p.WasCommitted(committed[i].ID()) {
			remembered++
		} else if i >= len(committed)-(genLimit+1) {
			t.Fatalf("commit %d of %d forgotten", i, len(committed))
		}
	}
	if remembered > 2*genLimit+1 {
		t.Fatalf("%d commits remembered, bound is %d", remembered, 2*genLimit+1)
	}
	if p.WasCommitted(committed[0].ID()) {
		t.Fatal("the oldest commit outlived two rotations")
	}
}

func TestAppBuildBlock(t *testing.T) {
	chain, err := ledger.NewChain(mkGenesis(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	self := gcrypto.DeterministicKeyPair(0).Address()
	app := NewApp(chain, NewMempool(0, nil), self, epoch, 2)

	// Empty pool: nothing to propose.
	if app.BuildBlock(time.Second, 1, 0, 1) != nil {
		t.Fatal("empty pool must build nil")
	}
	app.SubmitTx(mkTx(0, 1))
	app.SubmitTx(mkTx(0, 2))
	app.SubmitTx(mkTx(0, 3))

	// Wrong seq: engine ahead of chain.
	if app.BuildBlock(time.Second, 1, 0, 5) != nil {
		t.Fatal("seq mismatch must build nil")
	}
	b := app.BuildBlock(time.Second, 1, 0, 1)
	if b == nil {
		t.Fatal("expected a block")
	}
	if len(b.Txs) != 2 {
		t.Fatalf("batch size not enforced: %d txs", len(b.Txs))
	}
	if b.Header.Height != 1 || b.Header.Era != 1 || b.Header.Proposer != self {
		t.Fatalf("header: %+v", b.Header)
	}
	if b.Header.PrevHash != chain.Head().Hash() {
		t.Fatal("prev hash must link to head")
	}
	if !b.Header.Timestamp.Equal(epoch.Add(time.Second)) {
		t.Fatal("timestamp must map engine time onto the epoch")
	}
	if err := app.ValidateBlockOn(b, chain.Head()); err != nil {
		t.Fatal(err)
	}
}

// A speculative block carries a full block or is not built: the
// ceiling when one is set, the base batch otherwise, counting only
// transactions its in-flight ancestors have not packed.
func TestAppBuildBlockOnFullBlockOnly(t *testing.T) {
	for _, tc := range []struct {
		name                string
		base, ceiling, full int
	}{
		{"ceiling", 2, 8, 8},
		{"no ceiling", 2, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chain, _ := ledger.NewChain(mkGenesis(t, 4))
			app := NewApp(chain, NewMempool(0, nil), gcrypto.DeterministicKeyPair(0).Address(), epoch, tc.base)
			app.SetMaxBatch(tc.ceiling)
			if app.MinSpeculativeBatch() != tc.full || app.BaseBatch() != tc.base {
				t.Fatalf("MinSpeculativeBatch %d, BaseBatch %d", app.MinSpeculativeBatch(), app.BaseBatch())
			}
			app.SubmitTx(mkTx(100, 1))
			parent := app.BuildBlock(time.Second, 0, 0, 1) // in flight, still pooled
			exclude := map[gcrypto.Hash]bool{parent.Txs[0].ID(): true}
			for i := 1; i < tc.full; i++ {
				app.SubmitTx(mkTx(100+i, 1))
			}
			if b := app.BuildBlockOn(time.Second, 0, 0, 2, parent, exclude); b != nil {
				t.Fatalf("built a block of %d on %d unpacked", len(b.Txs), tc.full-1)
			}
			app.SubmitTx(mkTx(100+tc.full, 1))
			app.SubmitTx(mkTx(101+tc.full, 1))
			b := app.BuildBlockOn(time.Second, 0, 0, 2, parent, exclude)
			if b == nil || len(b.Txs) != tc.full {
				t.Fatalf("want a block of exactly %d on %d unpacked", tc.full, tc.full+1)
			}
			for i := range b.Txs {
				if exclude[b.Txs[i].ID()] {
					t.Fatal("packed a transaction its parent carries")
				}
			}
			if err := app.ValidateBlockOn(b, parent); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAppSubmitTxValidates(t *testing.T) {
	chain, _ := ledger.NewChain(mkGenesis(t, 4))
	app := NewApp(chain, NewMempool(0, nil), gcrypto.DeterministicKeyPair(0).Address(), epoch, 0)
	bad := mkTx(0, 1)
	bad.Fee = 999 // breaks signature
	if err := app.SubmitTx(bad); err == nil {
		t.Fatal("invalid tx must be rejected")
	}
	good := mkTx(0, 2)
	if err := app.SubmitTx(good); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-submission.
	if err := app.SubmitTx(good); err != nil {
		t.Fatalf("duplicate submit must be silent: %v", err)
	}
	if app.PendingTxs() != 1 {
		t.Fatalf("pending %d", app.PendingTxs())
	}
}

func TestAppCommit(t *testing.T) {
	chain, _ := ledger.NewChain(mkGenesis(t, 4))
	self := gcrypto.DeterministicKeyPair(0).Address()
	app := NewApp(chain, NewMempool(0, nil), self, epoch, 0)
	app.SubmitTx(mkTx(0, 1))
	b := app.BuildBlock(time.Second, 0, 0, 1)
	if b == nil {
		t.Fatal("no block")
	}
	if err := app.Commit(b); err != nil {
		t.Fatal(err)
	}
	if chain.Height() != 1 {
		t.Fatal("chain did not advance")
	}
	if app.PendingTxs() != 0 {
		t.Fatal("committed txs must leave the pool")
	}
	// Double commit fails.
	if err := app.Commit(b); err == nil {
		t.Fatal("double commit must fail")
	}
}
