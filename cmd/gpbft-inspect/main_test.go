package main

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpbft/internal/assemble"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// TestInspectReadsFromTheSnapshot: a durable directory whose block log
// was compacted below its oldest snapshot inspects as a restart reads
// it — the snapshot, then the tail above it — and ends intact at the
// log's head.
func TestInspectReadsFromTheSnapshot(t *testing.T) {
	g := assemble.DeploymentGenesis("inspect-test", "gpbft", 4, 30*time.Second, 250*time.Millisecond, 5*time.Second)
	chain, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "node0.blk")
	dir, err := store.OpenDir(store.OS, path, store.DirOptions{Retain: 2, Compact: true})
	if err != nil {
		t.Fatal(err)
	}
	kp := gcrypto.DeterministicKeyPair(0)
	for h := 1; h <= 10; h++ {
		tx := types.Transaction{
			Type: types.TxNormal, Nonce: uint64(h), Payload: []byte{byte(h)}, Fee: 1,
			Geo: types.GeoInfo{Location: geo.Point{Lng: 114.175, Lat: 22.302}, Timestamp: g.Timestamp.Add(time.Duration(h) * time.Second)},
		}
		tx.Sign(kp)
		head := chain.Head()
		b := types.NewBlock(types.BlockHeader{
			Height: uint64(h), Seq: uint64(h), PrevHash: head.Hash(), Proposer: kp.Address(),
			Timestamp: g.Timestamp.Add(time.Duration(h) * time.Second),
		}, []types.Transaction{tx})
		if err := chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := dir.Committed(b); err != nil {
			t.Fatal(err)
		}
		if h == 6 {
			dir.Publish(store.NewSnapshot(chain.ExportState(), kp))
		}
	}
	dir.EraSwitched(chain) // compacts the log below the snapshot
	if _, compacted := dir.Counts(); compacted == 0 {
		t.Fatal("the log was not compacted; the test reads nothing from the snapshot")
	}
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := inspectData(&out, g, path, false, true); err != nil {
		t.Fatalf("inspect: %v\n%s", err, out.String())
	}
	for _, want := range []string{"(4 blocks to replay)", "snapshot:  height=6", "summary: height=10", "reward balances:", "integrity: OK"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestInspectRefusesAMissingPath: inspecting a path that does not exist
// is an error and leaves nothing behind.
func TestInspectRefusesAMissingPath(t *testing.T) {
	g := assemble.DeploymentGenesis("inspect-test", "gpbft", 4, 30*time.Second, 250*time.Millisecond, 5*time.Second)
	path := filepath.Join(t.TempDir(), "does-not-exist.blk")
	if err := inspectData(&bytes.Buffer{}, g, path, false, false); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("inspect of a missing path: %v, want not-exist", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("inspect created %s", path)
	}
}
