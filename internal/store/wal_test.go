package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gpbft/internal/gcrypto"
)

func walRec(kind WALKind, era, view, seq uint64, tag byte) WALRecord {
	var d gcrypto.Hash
	d[0] = tag
	return WALRecord{Kind: kind, Era: era, View: view, Seq: seq, Digest: d,
		Data: []byte{tag, tag + 1}}
}

func TestWALAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "consensus.wal")
	w, recs, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatal("fresh wal must be empty")
	}
	want := []WALRecord{
		walRec(WALEra, 1, 0, 0, 1),
		walRec(WALPrepare, 1, 0, 3, 2),
		walRec(WALPrepared, 1, 0, 3, 2),
		walRec(WALNewView, 1, 2, 0, 3),
	}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.count != len(want) {
		t.Fatalf("count %d", w.count)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Kind != want[i].Kind || r.Era != want[i].Era || r.View != want[i].View ||
			r.Seq != want[i].Seq || r.Digest != want[i].Digest ||
			string(r.Data) != string(want[i].Data) {
			t.Fatalf("record %d mangled: %+v", i, r)
		}
	}
	// Appends continue after recovery.
	if err := w2.Append(walRec(WALPrepare, 1, 2, 4, 9)); err != nil {
		t.Fatal(err)
	}
	if w2.count != len(want)+1 {
		t.Fatalf("count %d after recovered append", w2.count)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "consensus.wal")
	w, _, _ := OpenWAL(path, WALOptions{})
	for i := 0; i < 3; i++ {
		if err := w.Append(walRec(WALPrepare, 1, 0, uint64(i), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	info, _ := os.Stat(path)
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	w2, recs, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records after torn tail, want 2", len(recs))
	}
	// The torn bytes were truncated away: the next append must survive a
	// further reopen intact.
	if err := w2.Append(walRec(WALPrepared, 1, 0, 2, 7)); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, recs, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if len(recs) != 3 || recs[2].Kind != WALPrepared {
		t.Fatalf("recovered %d records after re-append", len(recs))
	}
}

func TestWALMidLogCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "consensus.wal")
	w, _, _ := OpenWAL(path, WALOptions{})
	for i := 0; i < 4; i++ {
		w.Append(walRec(WALPrepare, 1, 0, uint64(i), byte(i)))
	}
	w.Close()

	// Flip a byte in the FIRST frame: valid frames follow, so this is
	// corruption, not a torn tail — open must refuse rather than silently
	// drop three durable votes.
	data, _ := os.ReadFile(path)
	data[frameHeaderSize+2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	_, _, err := OpenWAL(path, WALOptions{})
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("want ErrCorruptFrame, got %v", err)
	}
}

// TestWALRetiredCommitRefused: a log holding a commit record comes from
// a version whose block logs cannot be replayed either, and one holding
// an old prepared record from a version whose envelopes named senders
// by address; either is refused, not half-read, wherever in the log the
// record sits.
func TestWALRetiredCommitRefused(t *testing.T) {
	for _, retired := range []WALKind{walRetiredCommit, walRetiredPrepared} {
		for _, at := range []int{0, 2} {
			path := filepath.Join(t.TempDir(), "consensus.wal")
			w, _, _ := OpenWAL(path, WALOptions{})
			for i := 0; i < 3; i++ {
				kind := WALPrepare
				if i == at {
					kind = retired
				}
				w.Append(walRec(kind, 1, 0, uint64(i), byte(i)))
			}
			w.Close()
			if _, _, err := OpenWAL(path, WALOptions{}); !errors.Is(err, ErrWALRetired) {
				t.Fatalf("%v record at %d: want ErrWALRetired, got %v", retired, at, err)
			}
		}
	}
}

func TestWALRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "consensus.wal")
	w, _, _ := OpenWAL(path, WALOptions{})
	for i := 0; i < 5; i++ {
		w.Append(walRec(WALPrepared, 1, 0, uint64(i), byte(i)))
	}
	if err := w.Rotate(2); err != nil {
		t.Fatal(err)
	}
	// Old-era records are gone; only the fresh era marker remains.
	if w.count != 1 {
		t.Fatalf("count %d after rotate", w.count)
	}
	w.Append(walRec(WALPrepare, 2, 0, 1, 9))
	w.Close()

	_, recs, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Kind != WALEra || recs[0].Era != 2 ||
		recs[1].Kind != WALPrepare {
		t.Fatalf("recovered %+v after rotate", recs)
	}
}

func TestWALClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "consensus.wal")
	w, _, _ := OpenWAL(path, WALOptions{})
	w.Close()
	if err := w.Append(walRec(WALPrepare, 1, 0, 0, 0)); err != ErrLogClosed {
		t.Fatalf("want ErrLogClosed, got %v", err)
	}
	if err := w.Rotate(2); err != ErrLogClosed {
		t.Fatalf("want ErrLogClosed from Rotate, got %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
}

// TestWALOnMemFS: the WAL over the in-memory file system appends,
// rotates and reads back exactly as on disk.
func TestWALOnMemFS(t *testing.T) {
	fsys := NewMemFS()
	w, _, err := openWAL(fsys, "votes.wal", true)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(walRec(WALPrepare, 1, 0, 1, 1))
	w.Append(walRec(WALPrepared, 1, 0, 1, 1))
	if w.count != 2 {
		t.Fatalf("count %d", w.count)
	}
	if err := w.Rotate(2); err != nil {
		t.Fatal(err)
	}
	_, recs, err := openWAL(fsys, "votes.wal", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != WALEra || recs[0].Era != 2 {
		t.Fatalf("records after rotate: %+v", recs)
	}
}
