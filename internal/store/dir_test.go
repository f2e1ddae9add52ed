package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

// eraChain is a chain whose era switches at heights 6, 10, 14, ...
// (ledger.ErasForced, a block a second, three-second eras): its blocks
// and the state after each, states[h] being the chain at height h.
type eraChain struct {
	g      *ledger.Genesis
	blocks []*types.Block // blocks[h-1] is height h
	states []*ledger.ChainState
}

func buildEraChain(t testing.TB, n int) *eraChain {
	t.Helper()
	g := testGenesis(t)
	g.Policy.Eras = ledger.ErasForced
	g.Policy.EraPeriod = 3 * time.Second
	g.Policy.SwitchPeriod = 100 * time.Millisecond
	chain, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	ec := &eraChain{g: g, states: []*ledger.ChainState{chain.ExportState()}}
	kp := gcrypto.DeterministicKeyPair(0)
	for h := 1; h <= n; h++ {
		// Every endorser reports its location in every block, so each
		// stays qualified and every boundary switches the era.
		at := epoch.Add(time.Duration(h) * time.Second)
		var txs []types.Transaction
		for i := 0; i < 4; i++ {
			tx := types.Transaction{
				Type: types.TxLocationReport, Nonce: uint64(h),
				Geo: types.GeoInfo{Location: geo.Point{Lng: 114.18, Lat: 22.3}, Timestamp: at},
			}
			tx.Sign(gcrypto.DeterministicKeyPair(i))
			txs = append(txs, tx)
		}
		head := chain.Head()
		b := types.NewBlock(types.BlockHeader{
			Height: uint64(h), Seq: uint64(h), Era: chain.Era(), PrevHash: head.Hash(),
			Proposer: kp.Address(), Timestamp: at,
		}, txs)
		if err := chain.AddBlock(b); err != nil {
			t.Fatalf("height %d: %v", h, err)
		}
		ec.blocks = append(ec.blocks, b)
		ec.states = append(ec.states, chain.ExportState())
	}
	return ec
}

var dirOpts = DirOptions{Sync: true, Retain: 2, Compact: true}

// TestRestoreReanchorsALogThatEndsBelowTheSnapshot: an era's boundary
// snapshot is published, and fsynced, before its block is appended. A
// crash in between leaves the snapshot at h and the log ending at h-1.
// The restart boots from the snapshot, and the next commit, of h+1, must
// append: a reopen returns it.
func TestRestoreReanchorsALogThatEndsBelowTheSnapshot(t *testing.T) {
	ec := buildEraChain(t, 8)
	const h = 6
	fsys := newCrashFS()
	d, err := OpenDir(fsys, "node", dirOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ec.blocks[:h-1] {
		if err := d.Committed(b); err != nil {
			t.Fatal(err)
		}
	}
	d.Publish(NewSnapshot(ec.states[h], gcrypto.DeterministicKeyPair(0)))

	fsys = fsys.Crash()
	d, err = OpenDir(fsys, "node", dirOpts)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := d.Restore(ec.g)
	if err != nil {
		t.Fatal(err)
	}
	if boot.Snapshot == nil || boot.Chain.Height() != h {
		t.Fatalf("restored at height %d, want the snapshot's %d", boot.Chain.Height(), h)
	}
	next := ec.blocks[h]
	if err := boot.Chain.AddBlock(next); err != nil {
		t.Fatal(err)
	}
	if err := d.Committed(next); err != nil {
		t.Fatalf("commit of height %d after the restart: %v", h+1, err)
	}
	d.Close()

	d, err = OpenDir(fsys, "node", dirOpts)
	if err != nil {
		t.Fatal(err)
	}
	if boot, err = d.Restore(ec.g); err != nil || boot.Chain.Height() != h+1 {
		t.Fatalf("reopen: height %v, err %v; want %d", boot.Chain.Height(), err, h+1)
	}
}

// TestRestoreRefusesALogAboveTheChain: a block log compacted below a
// snapshot starts above genesis. A restart that cannot start from that
// snapshot — no snapshot store open, or the snapshot refused by another
// genesis — must refuse to boot and leave the log's bytes as they were.
// Only when the snapshots themselves are gone is the log, which nothing
// can replay any more, re-anchored for the node to recover from peers.
func TestRestoreRefusesALogAboveTheChain(t *testing.T) {
	ec := buildEraChain(t, installAt+2)
	fsys := NewMemFS()
	if err := (&crashScript{ec: ec}).run(fsys); err != nil {
		t.Fatal(err)
	}
	logged, _ := fsys.ReadFile("node")
	other := *ec.g
	other.ChainID = "another-chain"
	for _, tc := range []struct {
		name string
		g    *ledger.Genesis
		opts DirOptions
	}{
		{"no snapshot store", ec.g, DirOptions{Sync: true}},
		{"refused snapshot", &other, dirOpts},
	} {
		d, err := OpenDir(fsys, "node", tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Restore(tc.g); !errors.Is(err, ErrLogAboveChain) {
			t.Fatalf("%s: restore returned %v, want ErrLogAboveChain", tc.name, err)
		}
		d.Close()
		if now, _ := fsys.ReadFile("node"); !bytes.Equal(now, logged) {
			t.Fatalf("%s: the refused restart rewrote the block log (%d bytes, was %d)", tc.name, len(now), len(logged))
		}
	}

	names, _ := fsys.List("node.snap")
	for _, name := range names {
		fsys.Remove(filepath.Join("node.snap", name))
	}
	d, err := OpenDir(fsys, "node", dirOpts)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := d.Restore(ec.g)
	if err != nil || boot.Chain.Height() != 0 || d.blocks.Count() != 0 {
		t.Fatalf("with the snapshots gone: height %d, %d blocks logged, err %v; want genesis and an empty log", boot.Chain.Height(), d.blocks.Count(), err)
	}
}

// TestFailedCompactionKeepsTheLogsOpen: a compaction whose new file
// cannot be written (a full disk) leaves the old log in place and open.
// The block log and the vote WAL both take the next append, the
// directory reports no failure, and a reopen returns everything.
func TestFailedCompactionKeepsTheLogsOpen(t *testing.T) {
	ec := buildEraChain(t, 8)
	fsys := noTemps{NewMemFS()}
	d, err := OpenDir(fsys, "node", dirOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ec.blocks[:7] {
		if err := d.Committed(b); err != nil {
			t.Fatal(err)
		}
	}
	d.Publish(NewSnapshot(ec.states[6], gcrypto.DeterministicKeyPair(0)))
	for seq := uint64(1); seq <= 3; seq++ {
		if err := d.WAL().Append(walRec(WALPrepared, 0, 0, seq, byte(seq))); err != nil {
			t.Fatal(err)
		}
	}
	chain, err := ledger.RestoreChain(ec.g, ec.states[7])
	if err != nil {
		t.Fatal(err)
	}
	d.EraSwitched(chain)
	if _, err := d.WAL().CompactBelow(0, 2); err == nil {
		t.Fatal("the WAL compaction succeeded without its temp file")
	}
	if err := d.Committed(ec.blocks[7]); err != nil {
		t.Fatalf("block append after a failed compaction: %v", err)
	}
	if err := d.WAL().Append(walRec(WALPrepared, 0, 0, 4, 4)); err != nil {
		t.Fatalf("WAL append after a failed compaction: %v", err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("the directory reports %v", err)
	}
	d.Close()
	if d, err = OpenDir(fsys, "node", dirOpts); err != nil {
		t.Fatal(err)
	}
	if n, m := len(d.logged), len(d.Recovered()); n != 8 || m != 4 {
		t.Fatalf("reopened with %d blocks and %d WAL records, want 8 and 4", n, m)
	}
}

// noTemps fails the creation of the logs' temp files, which only their
// compactions write.
type noTemps struct{ *MemFS }

func (f noTemps) Create(name string) (File, error) {
	if name == "node.tmp" || name == "node.wal.tmp" {
		return nil, errors.New("disk full")
	}
	return f.MemFS.Create(name)
}

// crashScript is one node's durable life in miniature, run against a
// directory: votes, appends across era boundaries with their snapshots
// (published by the chain's era-bump hook, as the node does), the
// compaction and the WAL rotation each switch brings, a checkpoint
// compaction of the WAL, and at the end a peer snapshot's install with
// the commit after it. It stops at the first error, and records what
// the directory acknowledged before it.
type crashScript struct {
	ec *eraChain
	// acked are the WAL records whose Append (or Rotate) returned, still
	// in the log by the script's own account; height is the chain height
	// whose commit the directory last acknowledged.
	acked  []WALRecord
	height uint64
}

// installAt is the height of the peer snapshot the script installs, and
// commits is how many blocks it commits before that.
const installAt, commits = 13, 11

func (s *crashScript) run(fsys FS) error {
	d, err := OpenDir(fsys, "node", dirOpts)
	if err != nil {
		return err
	}
	kp := gcrypto.DeterministicKeyPair(0)
	chain, err := ledger.NewChain(s.ec.g)
	if err != nil {
		return err
	}
	chain.SetEraBumpHook(func(st *ledger.ChainState) { d.Publish(NewSnapshot(st, kp)) })
	vote := func(seq uint64) error {
		rec := walRec(WALPrepared, chain.Era(), 0, seq, byte(seq))
		if err := d.WAL().Append(rec); err != nil {
			return err
		}
		s.acked = append(s.acked, rec)
		return nil
	}
	for _, b := range s.ec.blocks[:commits] {
		if err := vote(b.Header.Height); err != nil {
			return err
		}
		era := chain.Era()
		if err := chain.AddBlock(b); err != nil {
			return err
		}
		if err := d.Committed(b); err != nil {
			return err
		}
		s.height = b.Header.Height
		if chain.Era() != era {
			d.EraSwitched(chain)
			s.acked = nil
			if err := d.WAL().Rotate(chain.Era()); err != nil {
				return err
			}
			s.acked = []WALRecord{{Kind: WALEra, Era: chain.Era()}}
		}
	}
	// A stable checkpoint at the last committed slot drops the era's
	// votes.
	s.acked = slices.DeleteFunc(s.acked, func(r WALRecord) bool { return walRecordStable(r, chain.Era(), s.height) })
	if _, err := d.WAL().CompactBelow(chain.Era(), s.height); err != nil {
		return err
	}
	peer := NewSnapshot(s.ec.states[installAt], gcrypto.DeterministicKeyPair(1))
	if err := chain.InstallState(peer.State); err != nil {
		return err
	}
	if err := d.Snapshots().Add(peer); err != nil {
		return err
	}
	d.SnapshotInstalled(peer.Era(), installAt)
	s.height = installAt
	next := s.ec.blocks[installAt]
	if err := chain.AddBlock(next); err != nil {
		return err
	}
	if err := d.Committed(next); err != nil {
		return err
	}
	s.height = next.Header.Height
	return nil
}

// TestCrashAtEveryOperation counts the file operations of one scripted
// run, then crashes the directory after every prefix of them, twice:
// once losing every unsynced write and directory entry, once with the
// last write torn and everything before it on disk (the crash model of
// Pillai et al., OSDI 2014). The script is deterministic, so rerunning
// it on a file system stopped after k operations reproduces prefix k. The reopened directory must open; the
// chain it restores must hold every commit the directory acknowledged,
// contiguous above the snapshot it starts from; every WAL record
// acknowledged must come back; and the next commit must append.
func TestCrashAtEveryOperation(t *testing.T) {
	ec := buildEraChain(t, installAt+2)
	if era := ec.states[commits].Era; era < 2 {
		t.Fatalf("the script's commits reach era %d; it must cross two boundaries", era)
	}
	full := newCrashFS()
	if err := (&crashScript{ec: ec}).run(full); err != nil {
		t.Fatalf("the script fails without a crash: %v", err)
	}
	ops := full.Ops()
	for k := 0; k <= ops; k++ {
		for _, torn := range []bool{false, true} {
			t.Run(fmt.Sprintf("op=%d/torn=%v", k, torn), func(t *testing.T) {
				fsys := newCrashFS()
				fsys.CrashAt(k, torn)
				s := &crashScript{ec: ec}
				if err := s.run(fsys); err != nil && fsys.Ops() < k {
					t.Fatalf("the script failed before its crash: %v", err)
				}
				checkReopen(t, ec, s, fsys.Crash())
			})
		}
	}
}

func checkReopen(t *testing.T, ec *eraChain, s *crashScript, img *crashFS) {
	t.Helper()
	d, err := OpenDir(img, "node", dirOpts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	boot, err := d.Restore(ec.g)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if boot.Replayed != len(boot.Tail) {
		t.Fatalf("replayed %d of the %d logged blocks above height %d", boot.Replayed, len(boot.Tail), boot.Chain.Height()-uint64(boot.Replayed))
	}
	h := boot.Chain.Height()
	if h < s.height {
		t.Fatalf("restored height %d, below the acknowledged commit of %d", h, s.height)
	}
	recovered := d.Recovered()
	for _, want := range s.acked {
		for len(recovered) > 0 && !sameRecord(recovered[0], want) {
			recovered = recovered[1:]
		}
		if len(recovered) == 0 {
			t.Fatalf("acknowledged WAL record %v seq %d lost (recovered %d records)", want.Kind, want.Seq, len(d.Recovered()))
		}
		recovered = recovered[1:]
	}
	next := ec.blocks[h]
	if err := boot.Chain.AddBlock(next); err != nil {
		t.Fatalf("next block at %d: %v", h+1, err)
	}
	if err := d.Committed(next); err != nil {
		t.Fatalf("commit of height %d after the restart: %v", h+1, err)
	}
}

func sameRecord(a, b WALRecord) bool {
	return a.Kind == b.Kind && a.Era == b.Era && a.View == b.View && a.Seq == b.Seq && a.Digest == b.Digest
}
