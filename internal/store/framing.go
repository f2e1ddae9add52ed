package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
)

// encodeFrame wraps body in the shared frame layout used by every log
// in this package: 4-byte big-endian length, body, 4-byte CRC32
// (Castagnoli) of the body.
func encodeFrame(body []byte) []byte {
	frame := make([]byte, frameHeaderSize+len(body)+frameTrailerSize)
	binary.BigEndian.PutUint32(frame[:frameHeaderSize], uint32(len(body)))
	copy(frame[frameHeaderSize:], body)
	binary.BigEndian.PutUint32(frame[frameHeaderSize+len(body):], crc32.Checksum(body, castagnoli))
	return frame
}

// frameAt parses the frame at the head of data: its body and the offset
// just past it, ok when it is whole and matches its checksum. A length
// no writer produces gives end 0; a frame data does not hold whole (a
// torn write) gives an end past len(data).
func frameAt(data []byte, maxFrame int) (body []byte, end int, ok bool) {
	if len(data) < frameHeaderSize {
		return nil, len(data) + 1, false
	}
	n := int(binary.BigEndian.Uint32(data))
	if n <= 0 || n > maxFrame {
		return nil, 0, false
	}
	end = frameHeaderSize + n + frameTrailerSize
	if end > len(data) {
		return nil, end, false
	}
	body = data[frameHeaderSize : frameHeaderSize+n]
	return body, end, crc32.Checksum(body, castagnoli) == binary.BigEndian.Uint32(data[frameHeaderSize+n:end])
}

// laterFrameSearchWindow bounds how far past a damaged frame the
// scanner looks for a subsequent valid frame. Torn tails are at most
// one partial write long, so a window this large is only ever crossed
// by genuine mid-log corruption.
const laterFrameSearchWindow = 1 << 20

// hasLaterValidFrame scans forward from data for any offset at which a
// structurally valid frame begins. It is how the scanner distinguishes
// a torn final write (nothing readable follows — truncate) from
// mid-log corruption (valid frames follow — the log is damaged and
// replaying a prefix would silently lose committed state).
func hasLaterValidFrame(data []byte, maxFrame int) bool {
	for off := 0; off < min(len(data), laterFrameSearchWindow); off++ {
		if _, _, ok := frameAt(data[off:], maxFrame); ok {
			return true
		}
	}
	return false
}

// scanFrames walks data frame by frame, calling visit with each valid
// body. It returns the byte offset just past the last valid frame. A
// genuinely final torn frame (power loss mid-write) is tolerated — the
// caller truncates at the returned offset. A damaged frame (a length no
// writer produces, a checksum mismatch, a payload visit refuses) that
// has valid frames after it returns ErrCorruptFrame: truncating there
// would drop durable records that demonstrably survived.
func scanFrames(data []byte, maxFrame int, visit func(body []byte) error) (int64, error) {
	off := 0
	for {
		body, end, ok := frameAt(data[off:], maxFrame)
		if end > len(data)-off {
			return int64(off), nil // EOF or a torn frame
		}
		var err error
		switch {
		case !ok:
			err = errors.New("bad length or checksum")
		case visit != nil:
			err = visit(body)
		}
		if err != nil {
			// Past a damaged header the search starts after it; past a
			// damaged frame, after the frame.
			if hasLaterValidFrame(data[off+max(end, frameHeaderSize):], maxFrame) {
				return int64(off), fmt.Errorf("%w: at offset %d: %v", ErrCorruptFrame, off, err)
			}
			return int64(off), nil
		}
		off += end
	}
}

// logFile is the one append-only file both logs are: CRC frames
// appended after the last intact one, rewritten whole by compaction. A
// failed write closes it for good and records why (failed): part of a
// frame may be on disk, and only a reopen, which truncates a torn tail,
// may append again.
type logFile struct {
	fs     FS
	f      File
	path   string
	sync   bool
	closed bool
	failed error
}

// openLog is the one open routine of the logs: it reads the file at
// path (a missing one is created, and its directory synced so the entry
// survives power loss), hands every intact frame body to visit, and
// truncates a torn tail so the next append starts clean. check, when
// set, may refuse what visit collected before anything is written.
func openLog(fsys FS, path string, sync bool, maxFrame int, visit func(body []byte) error, check func() error) (logFile, error) {
	l := logFile{fs: fsys, path: path, sync: sync}
	data, err := fsys.ReadFile(path)
	created := errors.Is(err, fs.ErrNotExist)
	if err != nil && !created {
		return l, fmt.Errorf("store: read %s: %w", path, err)
	}
	validEnd, err := scanFrames(data, maxFrame, visit)
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		return l, err
	}
	if l.f, err = fsys.OpenAppend(path); err != nil {
		return l, fmt.Errorf("store: open %s: %w", path, err)
	}
	if created {
		err = fsys.SyncDir(filepath.Dir(path))
	} else if validEnd < int64(len(data)) {
		err = l.f.Truncate(validEnd)
	}
	if err != nil {
		l.f.Close()
		return l, fmt.Errorf("store: open %s: %w", path, err)
	}
	return l, nil
}

// append writes body as one frame and, with sync, fsyncs it.
func (l *logFile) append(body []byte) error {
	if l.closed {
		return ErrLogClosed
	}
	_, err := l.f.Write(encodeFrame(body))
	if err == nil && l.sync {
		err = l.f.Sync()
	}
	if err != nil {
		l.f.Close()
		return l.fail(fmt.Errorf("store: append %s: %w", l.path, err))
	}
	return nil
}

// rewrite atomically replaces the file with data and reopens it. A
// failure before the rename leaves the old file in place and open. One
// after it closes the log: its handle names the replaced file.
func (l *logFile) rewrite(data []byte) error {
	renamed, err := replaceFile(l.fs, l.path, data)
	if !renamed {
		return err
	}
	l.f.Close()
	if err == nil {
		l.f, err = l.fs.OpenAppend(l.path)
	}
	if err != nil {
		return l.fail(err)
	}
	return nil
}

func (l *logFile) fail(err error) error {
	l.closed, l.failed = true, err
	return err
}

// close syncs and closes the file. Closing twice is fine.
func (l *logFile) close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replaceFile is the one atomic publish routine: data goes to a temp
// file, which is fsynced, renamed over path, and its directory fsynced.
// A crash at any point leaves the old file or the new one, never a mix.
// renamed reports whether the new file took the old one's place.
func replaceFile(fsys FS, path string, data []byte) (renamed bool, err error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return false, fmt.Errorf("store: publish %s: %w", path, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return false, fmt.Errorf("store: publish %s: %w", path, err)
	}
	return true, fsys.SyncDir(filepath.Dir(path))
}
