package store

import (
	"encoding/binary"
	"fmt"
)

// Log compaction. Snapshots make history below the latest stable
// checkpoint redundant: any restart can load a retained snapshot and
// replay only the tail, so frames below the checkpoint are dead weight.
// Both rewrites publish through replaceFile — a crash mid-compaction
// leaves the complete old log, never a partial one. Losing WAL votes to
// a torn compaction would reopen the equivocation window the WAL exists
// to close.

// CompactBelow drops every block below height keepFrom, keeping the
// tail intact, and returns the number of bytes reclaimed. The log may
// end up empty (count 0), in which case the next Append re-anchors it
// at whatever height the caller writes — the tail of a chain restored
// from a snapshot rather than from genesis.
func (l *BlockLog) CompactBelow(keepFrom uint64) (int64, error) {
	if l.closed {
		return 0, ErrLogClosed
	}
	if l.count == 0 || keepFrom <= l.first {
		return 0, nil
	}
	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return 0, fmt.Errorf("store: compact read: %w", err)
	}
	// Heights are contiguous, so the k-th frame holds height first+k.
	drop := min(keepFrom-l.first, uint64(l.count))
	off := 0
	for k := uint64(0); k < drop; k++ {
		off += frameHeaderSize + int(binary.BigEndian.Uint32(data[off:])) + frameTrailerSize
	}
	if err := l.rewrite(data[off:]); err != nil {
		return 0, err
	}
	l.count -= int(drop)
	l.first += drop
	return int64(off), nil
}

// CompactBelow drops vote and prepared records from the given era at or
// below seq — the consensus instances a stable checkpoint has made
// immutable. Records from other eras and the protocol-position kinds
// (era marker, view-change, new-view) are kept: they are what a
// restarted replica needs to rejoin at the right view. Returns bytes
// reclaimed.
func (w *WAL) CompactBelow(era, seq uint64) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrLogClosed
	}
	data, err := w.fs.ReadFile(w.path)
	if err != nil {
		return 0, fmt.Errorf("store: compact read wal: %w", err)
	}
	var kept []byte
	count := 0
	validEnd, err := scanFrames(data, MaxWALFrame, func(body []byte) error {
		rec, err := decodeWALRecord(body)
		if err != nil {
			return err
		}
		if walRecordStable(rec, era, seq) {
			return nil
		}
		kept = append(kept, encodeFrame(body)...)
		count++
		return nil
	})
	if err != nil || count == w.count {
		return 0, err
	}
	if err := w.rewrite(kept); err != nil {
		return 0, err
	}
	w.count = count
	return validEnd - int64(len(kept)), nil
}

// walRecordStable reports whether a record is covered by a stable
// checkpoint at (era, seq) and can be dropped.
func walRecordStable(rec WALRecord, era, seq uint64) bool {
	switch rec.Kind {
	case WALEra, WALViewChange, WALNewView:
		return false
	}
	return rec.Era == era && rec.Seq <= seq
}
