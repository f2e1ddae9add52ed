package store

import (
	"errors"
	"fmt"
	"sync"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// MaxWALFrame bounds a single persisted WAL record (a prepared proof
// carries a full block plus 2f prepare envelopes).
const MaxWALFrame = 8 << 20

// ErrWALRetired reports a log holding a record kind this version no
// longer replays.
var ErrWALRetired = errors.New("store: wal written by an incompatible version")

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
	// walRetiredCommit was a commit record, written by versions whose
	// chains this one cannot replay (DESIGN.md 5m); OpenWAL refuses it.
	walRetiredCommit
	// walRetiredPrepared was a prepared record whose proof held envelopes
	// that named their senders by address and key (DESIGN.md 5o), which
	// this version would misread; OpenWAL refuses it.
	walRetiredPrepared
	// WALViewChange: this replica asked to move to View in Era.
	WALViewChange
	// WALNewView: this replica entered View in Era; Data, when present,
	// is the NewView envelope that certified it.
	WALNewView
	// WALEra: this replica completed a switch into Era.
	WALEra
	// WALPrepared: the instance at (Era, Seq) reached prepared state,
	// which is also the promise of its commit for Digest; Data holds the
	// encoded prepared proof (pre-prepare envelope plus 2f prepare
	// envelopes) and the block, so a restarted replica can exhibit the
	// value in view changes and execute it without its pool. It is empty
	// for the commit a replica sends for a new view's re-issue of a slot
	// it has already executed: the chain holds that block.
	WALPrepared
)

// String names the record kind.
func (k WALKind) String() string {
	switch k {
	case WALPrePrepare:
		return "pre-prepare"
	case WALPrepare:
		return "prepare"
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
	Data   []byte // kind-specific payload (WALPrepared: proof and block)
}

// Canonical states the record's format.
func (r *WALRecord) Canonical(c codec.Coder) {
	codec.Uint8(c, &r.Kind)
	c.Uint64(&r.Era)
	c.Uint64(&r.View)
	c.Uint64(&r.Seq)
	c.Raw(r.Digest[:])
	c.Bytes(&r.Data)
}

// MarshalCanonical and UnmarshalCanonical run Canonical one way each.
func (r *WALRecord) MarshalCanonical(w *codec.Writer)          { r.Canonical(w.Coder()) }
func (r *WALRecord) UnmarshalCanonical(rd *codec.Reader) error { return codec.Read(rd, r) }

// decodeWALRecord parses one frame body.
func decodeWALRecord(body []byte) (WALRecord, error) {
	rec, err := codec.Unmarshal[WALRecord](body)
	if err != nil {
		return WALRecord{}, err
	}
	return *rec, nil
}

// WAL is the durable consensus write-ahead log: an append-only,
// CRC-framed record file sharing the block log's torn-tail recovery.
// Unlike the block log it defaults to fsync-per-append — a vote that
// reaches the network without reaching the disk is exactly the
// equivocation window the WAL exists to close.
type WAL struct {
	mu sync.Mutex
	logFile
	count int
}

// WALOptions configures opening a write-ahead log.
type WALOptions struct {
	// NoSync disables fsync-per-append (testing only; an unsynced WAL
	// does not survive power loss and weakens the safety argument).
	NoSync bool
}

// OpenWAL opens (or creates) the WAL at path on the operating system's
// file system, returning the log and the records recovered from it in
// append order.
func OpenWAL(path string, opts WALOptions) (*WAL, []WALRecord, error) {
	return openWAL(OS, path, !opts.NoSync)
}

// openWAL opens (or creates) the WAL at path. A torn final frame is
// truncated away; corruption followed by valid frames is an error, and
// so is a record kind this version no longer replays.
func openWAL(fsys FS, path string, sync bool) (*WAL, []WALRecord, error) {
	var recs []WALRecord
	visit := func(body []byte) error {
		rec, err := decodeWALRecord(body)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	}
	retired := func() error {
		for i := range recs {
			if recs[i].Kind == walRetiredCommit || recs[i].Kind == walRetiredPrepared {
				return fmt.Errorf("%w: %s", ErrWALRetired, path)
			}
		}
		return nil
	}
	f, err := openLog(fsys, path, sync, MaxWALFrame, visit, retired)
	if err != nil {
		return nil, nil, err
	}
	return &WAL{logFile: f, count: len(recs)}, recs, nil
}

// Append persists one record, fsyncing before it returns (unless
// NoSync): callers may only hand the corresponding message to the
// network after Append succeeds. A failed write closes the log.
func (w *WAL) Append(rec WALRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(rec)
}

func (w *WAL) appendLocked(rec WALRecord) error {
	if w.closed {
		return ErrLogClosed
	}
	body := codec.Marshal(&rec)
	if len(body) > MaxWALFrame {
		return fmt.Errorf("store: wal record %d exceeds frame limit", len(body))
	}
	if err := w.append(body); err != nil {
		return err
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
	defer w.mu.Unlock()
	if w.closed {
		return ErrLogClosed
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: wal rotate: %w", err)
	}
	w.count = 0
	return w.appendLocked(WALRecord{Kind: WALEra, Era: era})
}

// Err returns the write failure that closed the log, nil while it is
// healthy.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Close flushes and closes the file. Closing twice is fine.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.close()
}
