package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

// buildStates replays an n-block chain, exporting the canonical state
// after every block; states[i] is the chain at height i+1.
func buildStates(t testing.TB, n int) []*ledger.ChainState {
	t.Helper()
	g, blocks := buildChain(t, n)
	chain, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*ledger.ChainState, 0, n)
	for _, b := range blocks {
		if err := chain.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		states = append(states, chain.ExportState())
	}
	return states
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := buildStates(t, 3)[2]
	kp := gcrypto.DeterministicKeyPair(1)
	snap := NewSnapshot(st, kp)
	if err := snap.Verify(); err != nil {
		t.Fatalf("fresh snapshot fails verification: %v", err)
	}
	got, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("decoded snapshot fails verification: %v", err)
	}
	if got.Height() != 3 || got.Root() != snap.Root() || got.Producer != kp.Address() {
		t.Fatalf("round trip mangled snapshot: height=%d root=%v producer=%v",
			got.Height(), got.Root(), got.Producer)
	}
}

// TestSnapshotRootDeterministic is the trust anchor's foundation: two
// chains built from the same blocks — one by direct append, one
// restored from an earlier snapshot and tailed — must export byte-
// identical roots at the same height.
func TestSnapshotRootDeterministic(t *testing.T) {
	g, blocks := buildChain(t, 6)
	full, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	var mid *ledger.ChainState
	for i, b := range blocks {
		if err := full.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			mid = full.ExportState()
		}
	}
	restored, err := ledger.RestoreChain(g, mid)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, b := range blocks[3:] {
		if err := restored.AddBlock(b); err != nil {
			t.Fatalf("tail height %d: %v", b.Header.Height, err)
		}
	}
	if full.ExportState().Root() != restored.ExportState().Root() {
		t.Fatal("restored+tailed chain exports a different root than the fully replayed chain")
	}
}

func TestSnapshotFileAtomicPublish(t *testing.T) {
	st := buildStates(t, 2)[1]
	kp := gcrypto.DeterministicKeyPair(0)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gsnap")
	if err := WriteSnapshotFile(path, NewSnapshot(st, kp)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after publish", e.Name())
		}
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	if got.Root() != st.Root() {
		t.Fatal("published file carries a different root")
	}
}

// TestSnapshotCorruptions drives every corruption class the codec must
// catch with the typed error — and proves none of them ever yields a
// snapshot object (no partial state).
func TestSnapshotCorruptions(t *testing.T) {
	st := buildStates(t, 2)[1]
	kp := gcrypto.DeterministicKeyPair(0)
	snap := NewSnapshot(st, kp)
	body := EncodeSnapshot(snap)
	file := encodeFrame(body)

	mut := func(src []byte, f func([]byte)) []byte {
		out := append([]byte(nil), src...)
		f(out)
		return out
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"torn tail", file[:len(file)-3]},
		{"truncated mid-record", file[:len(file)/2]},
		{"empty file", nil},
		{"bit-flipped CRC", mut(file, func(b []byte) { b[0] ^= 0x01 })},
		{"bit-flipped payload", mut(file, func(b []byte) { b[len(b)/2] ^= 0x40 })},
		{"trailing garbage", append(append([]byte(nil), file...), 0xde, 0xad)},
		{"two frames", append(append([]byte(nil), file...), file...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeSnapshotFile(tc.data)
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("want ErrCorruptSnapshot, got %v", err)
			}
			if got != nil {
				t.Fatal("corrupt input produced a snapshot object (partial state)")
			}
		})
	}
}

// TestSnapshotNonMinimalVarint rejects a body whose leading varint
// (the tag length) is re-encoded in redundant two-byte form: canonical
// decoding must fail, not silently accept a second spelling of the
// same snapshot.
func TestSnapshotNonMinimalVarint(t *testing.T) {
	st := buildStates(t, 2)[1]
	body := EncodeSnapshot(NewSnapshot(st, gcrypto.DeterministicKeyPair(0)))
	if body[0] != byte(len(SnapshotTag)) {
		t.Fatalf("encoding changed: first byte %#x is not the tag length", body[0])
	}
	nonMinimal := append([]byte{body[0] | 0x80, 0x00}, body[1:]...)
	if _, err := DecodeSnapshot(nonMinimal); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("non-minimal varint: want ErrCorruptSnapshot, got %v", err)
	}
}

func TestSnapshotWrongSignature(t *testing.T) {
	st := buildStates(t, 2)[1]
	kp := gcrypto.DeterministicKeyPair(0)
	snap := NewSnapshot(st, kp)
	snap.Signature[4] ^= 0x10
	if err := snap.Verify(); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("tampered signature: want ErrCorruptSnapshot, got %v", err)
	}
	// A validly-framed file carrying the bad signature decodes but must
	// not verify — the layer installs nothing unverified.
	got, err := DecodeSnapshotFile(encodeFrame(EncodeSnapshot(snap)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := got.Verify(); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("want ErrCorruptSnapshot from Verify, got %v", err)
	}
}

func TestSnapshotStoreRetention(t *testing.T) {
	states := buildStates(t, 5)
	kp := gcrypto.DeterministicKeyPair(0)
	dir := t.TempDir()
	ss, err := openSnapshotStore(OS, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if err := ss.Add(NewSnapshot(st, kp)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retention: %d files on disk, want 2", len(entries))
	}
	latest, err := ss.Latest()
	if err != nil || latest == nil {
		t.Fatalf("latest: %v %v", latest, err)
	}
	if latest.Height() != 5 {
		t.Fatalf("latest height %d, want 5", latest.Height())
	}
	if got := ss.OldestHeight(); got != 4 {
		t.Fatalf("oldest height %d, want 4", got)
	}
}

// TestSnapshotStoreSkipsCorrupt flips bytes in the newest on-disk file:
// Latest must fall back to the older intact snapshot, never a partial
// decode of the damaged one.
func TestSnapshotStoreSkipsCorrupt(t *testing.T) {
	states := buildStates(t, 4)
	kp := gcrypto.DeterministicKeyPair(0)
	dir := t.TempDir()
	ss, err := openSnapshotStore(OS, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states[2:] {
		if err := ss.Add(NewSnapshot(st, kp)); err != nil {
			t.Fatal(err)
		}
	}
	newest := filepath.Join(dir, snapshotFileName(4))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	latest, err := ss.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest == nil || latest.Height() != 3 {
		t.Fatalf("latest should skip the corrupt file and return height 3, got %+v", latest)
	}
}

func TestBlockLogCompactBelow(t *testing.T) {
	_, blocks := buildChain(t, 10)
	path := filepath.Join(t.TempDir(), "blocks.log")
	lg, _, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := lg.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	reclaimed, err := lg.CompactBelow(6)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 || after.Size() != before.Size()-reclaimed {
		t.Fatalf("reclaimed %d, size %d -> %d", reclaimed, before.Size(), after.Size())
	}
	// The tail must still append and the file must reopen to exactly the
	// kept suffix.
	if err := lg.Append(nextBlock(t, blocks[9])); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	_, kept, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 6 || kept[0].Header.Height != 6 || kept[5].Header.Height != 11 {
		t.Fatalf("reopen after compaction: %d blocks, range [%d,%d]",
			len(kept), kept[0].Header.Height, kept[len(kept)-1].Header.Height)
	}
}

// nextBlock extends parent with an empty block (no txs) for append
// plumbing tests.
func nextBlock(t *testing.T, parent *types.Block) *types.Block {
	t.Helper()
	return types.NewBlock(types.BlockHeader{
		Height: parent.Header.Height + 1, Seq: parent.Header.Seq + 1,
		PrevHash: parent.Hash(), Proposer: parent.Header.Proposer,
		Timestamp: parent.Header.Timestamp,
	}, nil)
}

func TestWALCompactBelow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "votes.wal")
	w, _, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []WALRecord{
		walRec(WALEra, 2, 0, 0, 0),
		walRec(WALPrepare, 2, 0, 1, 1),
		walRec(WALPrepared, 2, 0, 1, 1),
		walRec(WALPrepare, 2, 0, 2, 2),
		walRec(WALViewChange, 2, 1, 0, 0),
		walRec(WALPrepare, 2, 1, 3, 3),
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.CompactBelow(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, kept, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []WALKind
	for _, r := range kept {
		kinds = append(kinds, r.Kind)
	}
	// Era and view-change markers always survive; votes at seq <= 2 are
	// dropped, the seq-3 vote stays.
	want := []WALKind{WALEra, WALViewChange, WALPrepare}
	if len(kept) != len(want) {
		t.Fatalf("kept %d records (%v), want %v", len(kept), kinds, want)
	}
	for i, k := range want {
		if kept[i].Kind != k {
			t.Fatalf("record %d kind %v, want %v", i, kept[i].Kind, k)
		}
	}
	if kept[2].Seq != 3 {
		t.Fatalf("surviving vote seq %d, want 3", kept[2].Seq)
	}
}

// TestDiskBoundedAcrossEras is the acceptance proof for compaction:
// running the snapshot-then-compact cycle for many "eras" keeps the
// block log's on-disk bytes flat (a constant window of post-checkpoint
// blocks) while the uncompacted control grows linearly, and the
// snapshot directory holds exactly the retention depth.
func TestDiskBoundedAcrossEras(t *testing.T) {
	const eras, blocksPerEra = 12, 5
	g, blocks := buildChain(t, eras*blocksPerEra)
	chain, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	logPath := filepath.Join(dir, "blocks.log")
	lg, _, err := Open(logPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ss, err := openSnapshotStore(OS, filepath.Join(dir, "snaps"), 2)
	if err != nil {
		t.Fatal(err)
	}
	kp := gcrypto.DeterministicKeyPair(0)

	logBytes := func() int64 {
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}

	var sizes []int64
	var uncompacted int64
	for era := 0; era < eras; era++ {
		for _, b := range blocks[era*blocksPerEra : (era+1)*blocksPerEra] {
			if err := chain.AddBlock(b); err != nil {
				t.Fatal(err)
			}
			if err := lg.Append(b); err != nil {
				t.Fatal(err)
			}
			uncompacted += int64(len(encodeFrame(types.EncodeBlock(b))))
		}
		if err := ss.Add(NewSnapshot(chain.ExportState(), kp)); err != nil {
			t.Fatal(err)
		}
		if floor := ss.OldestHeight(); floor > chain.BaseHeight() {
			if _, err := lg.CompactBelow(floor + 1); err != nil {
				t.Fatal(err)
			}
			chain.CompactBelow(floor)
		}
		sizes = append(sizes, logBytes())
	}
	// Steady state: once the first compaction has run, the log holds a
	// fixed window (checkpoint+1 .. head), so its size must never exceed
	// the first steady-state reading — NOT grow with era count the way
	// the raw log does.
	steady := sizes[2]
	for era, s := range sizes[2:] {
		if s > steady {
			t.Fatalf("era %d: log is %d bytes, over steady state %d (sizes %v)", era+2, s, steady, sizes)
		}
	}
	if final := sizes[len(sizes)-1]; final*4 >= uncompacted {
		t.Fatalf("compaction ineffective: log is %d bytes vs %d uncompacted", final, uncompacted)
	}
	// Retention bounds the snapshot directory too.
	entries, err := os.ReadDir(ss.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("snapshot dir holds %d files, want retention depth 2", len(entries))
	}
}

// FuzzDecodeSnapshotFile mutates a valid snapshot file image: the
// decoder must never panic, must classify every failure as
// ErrCorruptSnapshot, and on success must yield a snapshot that
// re-encodes to a decodable image with the same root.
func FuzzDecodeSnapshotFile(f *testing.F) {
	st := buildStates(f, 2)[1]
	file := encodeFrame(EncodeSnapshot(NewSnapshot(st, gcrypto.DeterministicKeyPair(0))))
	f.Add(file, 0, byte(0))
	f.Add(file, 3, byte(0xFF))
	f.Add(file[:len(file)-7], 0, byte(0))
	f.Add(file[:len(file)/3], 5, byte(0x20))
	f.Add([]byte{}, 0, byte(0))

	f.Fuzz(func(t *testing.T, data []byte, flipAt int, flipMask byte) {
		mutated := append([]byte(nil), data...)
		if len(mutated) > 0 {
			idx := flipAt % len(mutated)
			if idx < 0 {
				idx = -idx
			}
			mutated[idx] ^= flipMask
		}
		snap, err := DecodeSnapshotFile(mutated)
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if snap != nil {
				t.Fatal("error with non-nil snapshot (partial state)")
			}
			return
		}
		again, err := DecodeSnapshotFile(encodeFrame(EncodeSnapshot(snap)))
		if err != nil {
			t.Fatalf("re-encode of accepted snapshot fails: %v", err)
		}
		if again.Root() != snap.Root() {
			t.Fatal("re-encode changed the root")
		}
	})
}
