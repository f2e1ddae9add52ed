package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

var epoch = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)

func testGenesis(t testing.TB) *ledger.Genesis {
	t.Helper()
	g := &ledger.Genesis{ChainID: "store-test", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	for i := 0; i < 4; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114.18, Lat: 22.3}, geo.CSCPrecision),
		})
	}
	return g
}

// buildChain commits n blocks and returns them (excluding genesis).
func buildChain(t testing.TB, n int) (*ledger.Genesis, []*types.Block) {
	t.Helper()
	g := testGenesis(t)
	chain, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	kp := gcrypto.DeterministicKeyPair(0)
	var out []*types.Block
	for i := 0; i < n; i++ {
		tx := types.Transaction{
			Type: types.TxNormal, Nonce: uint64(i + 1), Payload: []byte{byte(i)}, Fee: 1,
			Geo: types.GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3},
				Timestamp: epoch.Add(time.Duration(i) * time.Second)},
		}
		tx.Sign(kp)
		head := chain.Head()
		b := types.NewBlock(types.BlockHeader{
			Height: head.Header.Height + 1, Seq: head.Header.Height + 1,
			PrevHash: head.Hash(), Proposer: kp.Address(),
			Timestamp: epoch.Add(time.Duration(i+1) * time.Second),
		}, []types.Transaction{tx})
		if err := chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return g, out
}

func TestAppendReopenReplay(t *testing.T) {
	g, blocks := buildChain(t, 7)
	path := filepath.Join(t.TempDir(), "chain.log")

	log, recovered, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatal("fresh log must be empty")
	}
	for _, b := range blocks {
		if err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if log.Height() != 7 || log.Count() != 7 {
		t.Fatalf("height=%d count=%d", log.Height(), log.Count())
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all blocks come back, and replay rebuilds the chain.
	log2, recovered, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(recovered) != 7 {
		t.Fatalf("recovered %d blocks", len(recovered))
	}
	for i, b := range recovered {
		if b.Hash() != blocks[i].Hash() {
			t.Fatalf("block %d mangled", i)
		}
	}
	chain, err := Replay(g, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Height() != 7 {
		t.Fatalf("replayed height %d", chain.Height())
	}
	// The derived state came back too (election table fed by tx geo).
	if chain.Table().Len() == 0 {
		t.Fatal("replay must rebuild the election table")
	}
	// And appends continue from the recovered height.
	if log2.Height() != 7 {
		t.Fatalf("reopened height %d", log2.Height())
	}
}

func TestTornTailTruncated(t *testing.T) {
	_, blocks := buildChain(t, 3)
	path := filepath.Join(t.TempDir(), "chain.log")
	log, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		log.Append(b)
	}
	log.Close()

	// Simulate a torn write: chop bytes off the final frame.
	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	log2, recovered, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(recovered) != 2 {
		t.Fatalf("recovered %d blocks after torn tail, want 2", len(recovered))
	}
	// The torn frame is gone: appending block 3 again works.
	if err := log2.Append(blocks[2]); err != nil {
		t.Fatal(err)
	}
	if log2.Height() != 3 {
		t.Fatalf("height %d after re-append", log2.Height())
	}
}

func TestCorruptTailStopsReplay(t *testing.T) {
	_, blocks := buildChain(t, 3)
	path := filepath.Join(t.TempDir(), "chain.log")
	log, _, _ := Open(path, Options{})
	for _, b := range blocks {
		log.Append(b)
	}
	log.Close()

	// Flip a byte in the LAST frame's payload: checksum fails, replay
	// stops before it.
	data, _ := os.ReadFile(path)
	data[len(data)-20] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	_, recovered, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d, want 2 (corrupt tail dropped)", len(recovered))
	}
}

func TestMidLogCorruptionRejected(t *testing.T) {
	_, blocks := buildChain(t, 3)
	path := filepath.Join(t.TempDir(), "chain.log")
	log, _, _ := Open(path, Options{})
	for _, b := range blocks {
		log.Append(b)
	}
	log.Close()

	// Flip a byte in the FIRST frame's payload. Valid frames follow, so
	// this is mid-log damage: open must refuse rather than truncate away
	// two committed blocks.
	data, _ := os.ReadFile(path)
	data[frameHeaderSize+8] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	if _, _, err := Open(path, Options{}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want ErrCorruptFrame, got %v", err)
	}
}

func TestAppendOutOfOrderRejected(t *testing.T) {
	_, blocks := buildChain(t, 3)
	path := filepath.Join(t.TempDir(), "chain.log")
	log, _, _ := Open(path, Options{})
	defer log.Close()
	if err := log.Append(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(blocks[2]); err == nil {
		t.Fatal("height gap must be rejected")
	}
}

func TestReplayRejectsTamperedBlocks(t *testing.T) {
	g, blocks := buildChain(t, 2)
	// Tamper with a transaction fee: replay must fail (tx root check).
	blocks[1].Txs[0].Fee = 999
	if _, err := Replay(g, blocks); err == nil {
		t.Fatal("tampered block replayed successfully")
	}
}

func TestClosedLogRejectsAppend(t *testing.T) {
	_, blocks := buildChain(t, 1)
	path := filepath.Join(t.TempDir(), "chain.log")
	log, _, _ := Open(path, Options{Sync: true})
	log.Close()
	if err := log.Append(blocks[0]); err != ErrLogClosed {
		t.Fatalf("want ErrLogClosed, got %v", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
}

// Replay reconstructs a chain from genesis plus the persisted blocks.
// Blocks are fully re-validated (linkage, signatures, certificates) —
// a tampered log cannot smuggle state in.
func Replay(g *ledger.Genesis, blocks []*types.Block) (*ledger.Chain, error) {
	chain, err := ledger.NewChain(g)
	if err != nil {
		return nil, err
	}
	for i, b := range blocks {
		if err := chain.AddBlock(b); err != nil {
			return nil, fmt.Errorf("store: replay block %d (height %d): %w", i, b.Header.Height, err)
		}
	}
	return chain, nil
}
