package store

import (
	"fmt"
	"io"
	"os"
	"sync"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// MaxWALFrame bounds a single persisted WAL record (a prepared proof
// carries a full block plus 2f prepare envelopes).
const MaxWALFrame = 8 << 20

// WALKind discriminates consensus write-ahead-log records.
type WALKind uint8

// Record kinds. The vote kinds (pre-prepare, prepare, commit) are the
// ones a replica must never contradict after a restart; the others
// track protocol position (view entered, era completed) and the
// prepared certificates that keep view changes safe across restarts.
const (
	// WALPrePrepare: this replica, as primary, proposed Digest at
	// (Era, View, Seq).
	WALPrePrepare WALKind = iota + 1
	// WALPrepare: this replica sent a prepare for Digest at
	// (Era, View, Seq).
	WALPrepare
	// WALCommit: this replica sent a commit (certificate vote) for
	// Digest at (Era, View, Seq). Only read, from logs of earlier
	// versions: the WALPrepared record has stood for the commit since.
	WALCommit
	// WALPrepared: the instance at (Era, Seq) reached prepared state,
	// which is also the promise of its commit for Digest; Data holds the
	// encoded prepared proof (pre-prepare envelope plus 2f prepare
	// envelopes) so a restarted replica can still exhibit the value in
	// view changes.
	WALPrepared
	// WALViewChange: this replica asked to move to View in Era.
	WALViewChange
	// WALNewView: this replica entered View in Era.
	WALNewView
	// WALEra: this replica completed a switch into Era.
	WALEra
)

// String names the record kind.
func (k WALKind) String() string {
	switch k {
	case WALPrePrepare:
		return "pre-prepare"
	case WALPrepare:
		return "prepare"
	case WALCommit:
		return "commit"
	case WALPrepared:
		return "prepared"
	case WALViewChange:
		return "view-change"
	case WALNewView:
		return "new-view"
	case WALEra:
		return "era"
	default:
		return fmt.Sprintf("wal-kind(%d)", uint8(k))
	}
}

// WALRecord is one durable consensus event. The engine appends a
// record BEFORE the corresponding message leaves the replica
// (persist-before-send): after a crash the reloaded records are the
// set of promises the replica may already have made to the network.
type WALRecord struct {
	Kind   WALKind
	Era    uint64
	View   uint64
	Seq    uint64
	Digest gcrypto.Hash
	Data   []byte // kind-specific payload (WALPrepared: encoded proof)
}

// MarshalCanonical implements codec.Marshaler.
func (r *WALRecord) MarshalCanonical(w *codec.Writer) {
	w.Uint8(uint8(r.Kind))
	w.Uint64(r.Era)
	w.Uint64(r.View)
	w.Uint64(r.Seq)
	w.Raw(r.Digest[:])
	w.WriteBytes(r.Data)
}

// UnmarshalCanonical decodes a record.
func (r *WALRecord) UnmarshalCanonical(rd *codec.Reader) error {
	r.Kind = WALKind(rd.Uint8())
	r.Era = rd.Uint64()
	r.View = rd.Uint64()
	r.Seq = rd.Uint64()
	rd.RawInto(r.Digest[:])
	r.Data = rd.ReadBytes()
	return rd.Err()
}

// decodeWALRecord parses one frame body.
func decodeWALRecord(body []byte) (WALRecord, error) {
	var rec WALRecord
	r := codec.NewReader(body)
	if err := rec.UnmarshalCanonical(r); err != nil {
		return rec, err
	}
	if err := r.Finish(); err != nil {
		return rec, err
	}
	return rec, nil
}

// WAL is the durable consensus write-ahead log: an append-only,
// CRC-framed record file sharing the block log's torn-tail recovery.
// Unlike the block log it defaults to fsync-per-append — a vote that
// reaches the network without reaching the disk is exactly the
// equivocation window the WAL exists to close.
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	sync   bool
	closed bool
	count  int
}

// WALOptions configures opening a write-ahead log.
type WALOptions struct {
	// NoSync disables fsync-per-append (testing only; an unsynced WAL
	// does not survive power loss and weakens the safety argument).
	NoSync bool
}

// OpenWAL opens (or creates) the WAL at path, returning the log and
// the records recovered from it in append order. A torn final frame is
// truncated away; corruption followed by valid frames is an error.
func OpenWAL(path string, opts WALOptions) (*WAL, []WALRecord, error) {
	f, err := openLogFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open wal %s: %w", path, err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: read wal: %w", err)
	}
	var recs []WALRecord
	validEnd, err := scanFrames(data, MaxWALFrame, func(body []byte) error {
		rec, err := decodeWALRecord(body)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncate wal torn tail: %w", err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, sync: !opts.NoSync, count: len(recs)}
	return w, recs, nil
}

// Append persists one record, fsyncing before it returns (unless
// NoSync): callers may only hand the corresponding message to the
// network after Append succeeds.
func (w *WAL) Append(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrLogClosed
	}
	body := codec.Encode(&rec)
	if len(body) > MaxWALFrame {
		return fmt.Errorf("store: wal record %d exceeds frame limit", len(body))
	}
	if _, err := w.f.Write(encodeFrame(body)); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal sync: %w", err)
		}
	}
	w.count++
	return nil
}

// Rotate discards all records and restarts the log with a fresh era
// marker. It is called when an era switch completes: votes from
// finished eras can never conflict again (the engine rejects any
// message from an era below the chain's), so keeping them only grows
// the file. If the replica dies between the truncate and the marker
// the WAL is simply empty — correct, since the replica has not voted
// in the new era yet.
func (w *WAL) Rotate(era uint64) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrLogClosed
	}
	if err := w.f.Truncate(0); err != nil {
		w.mu.Unlock()
		return fmt.Errorf("store: wal rotate: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		w.mu.Unlock()
		return err
	}
	w.count = 0
	w.mu.Unlock()
	return w.Append(WALRecord{Kind: WALEra, Era: era})
}

// Count returns the number of records in the log.
func (w *WAL) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Close flushes and closes the file. Closing twice is fine.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// MemWAL is an in-memory WAL with the same interface, used by the
// simulator's amnesia-restart fault model: it survives a simulated
// crash (the harness holds it outside the node) exactly like a file
// survives a process kill.
type MemWAL struct {
	mu   sync.Mutex
	recs []WALRecord
}

// Append implements the WAL surface.
func (m *MemWAL) Append(rec WALRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, rec)
	return nil
}

// Rotate implements the WAL surface.
func (m *MemWAL) Rotate(era uint64) error {
	m.mu.Lock()
	m.recs = m.recs[:0]
	m.mu.Unlock()
	return m.Append(WALRecord{Kind: WALEra, Era: era})
}

// Records returns a copy of the recorded entries in append order.
func (m *MemWAL) Records() []WALRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WALRecord, len(m.recs))
	copy(out, m.recs)
	return out
}

// Len returns the number of records.
func (m *MemWAL) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}
