package store

import (
	"errors"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
)

// errCrashed is returned by every crashFS operation past its crash point.
var errCrashed = errors.New("store: file system crashed")

// crashFS is an in-memory FS that keeps what a disk keeps: every file's
// content as of its last Sync, and every directory's entries as of its
// last SyncDir. The crash-point test stops it after any operation
// (CrashAt) and reads what a power cut would have left (Crash).
type crashFS struct {
	mu sync.Mutex
	// files is the namespace the running process sees; disk is the one
	// a power cut would leave.
	files, disk map[string]*crashFile
	ops         int
	limit       int
	torn        bool
}

// crashFile is one file's content: data as the process sees it, synced
// as the disk holds it. synced shares data's array; a truncate caps
// data so later appends copy rather than overwrite what is synced.
type crashFile struct {
	data, synced []byte
}

// newCrashFS returns an empty in-memory file system.
func newCrashFS() *crashFS {
	return &crashFS{files: map[string]*crashFile{}, disk: map[string]*crashFile{}, limit: -1}
}

// Ops counts the operations that changed the file system or made it
// durable: creations, writes, syncs, truncations, renames and removals.
func (m *crashFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// CrashAt stops the file system after its next k operations: every
// later one fails with errCrashed and changes nothing. With torn, the
// k-th operation, if it is a write, lands only its first half.
func (m *crashFS) CrashAt(k int, torn bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limit, m.torn = m.ops+k, torn
}

// Crash returns the file system a power cut would leave now. After
// CrashAt(k, true) that is everything the process wrote, the last write
// torn; otherwise only synced content under synced directory entries.
func (m *crashFS) Crash() *crashFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := newCrashFS()
	names, content := m.disk, func(f *crashFile) []byte { return f.synced }
	if m.torn {
		names, content = m.files, func(f *crashFile) []byte { return f.data }
	}
	for name, f := range names {
		c := content(f)
		c = c[:len(c):len(c)]
		out.files[name] = &crashFile{data: c, synced: c}
		out.disk[name] = out.files[name]
	}
	return out
}

// admit counts one operation on name, unless the crash point
// refuses it; last reports that the crash point falls right after it.
// The caller holds mu.
func (m *crashFS) admit(op, name string) (last bool, err error) {
	if m.limit >= 0 && m.ops >= m.limit {
		return false, errCrashed
	}
	m.ops++
	return m.ops == m.limit, nil
}

// do applies one admitted operation on name under mu.
func (m *crashFS) do(op, name string, apply func(last bool)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	last, err := m.admit(op, filepath.Clean(name))
	if err == nil {
		apply(last)
	}
	return err
}

func (m *crashFS) open(name string, truncate bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := &crashHandle{fs: m, name: filepath.Clean(name)}
	if h.f = m.files[h.name]; h.f != nil && !truncate {
		return h, nil
	}
	if _, err := m.admit("create", h.name); err != nil {
		return nil, err
	}
	if h.f == nil {
		h.f = &crashFile{}
		m.files[h.name] = h.f
	}
	h.f.data = h.f.data[:0:0]
	return h, nil
}

// OpenAppend implements FS.
func (m *crashFS) OpenAppend(name string) (File, error) { return m.open(name, false) }

// Create implements FS.
func (m *crashFS) Create(name string) (File, error) { return m.open(name, true) }

// file returns the file at name, or a not-exist error for op.
func (m *crashFS) file(op, name string) (*crashFile, error) {
	if f := m.files[filepath.Clean(name)]; f != nil {
		return f, nil
	}
	return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// ReadFile implements FS.
func (m *crashFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.file("open", name)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), f.data...), nil
}

// Rename implements FS.
func (m *crashFS) Rename(from, to string) error {
	m.mu.Lock()
	f, err := m.file("rename", from)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.do("rename", to, func(bool) {
		delete(m.files, filepath.Clean(from))
		m.files[filepath.Clean(to)] = f
	})
}

// Remove implements FS.
func (m *crashFS) Remove(name string) error {
	m.mu.Lock()
	_, err := m.file("remove", name)
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.do("remove", name, func(bool) { delete(m.files, filepath.Clean(name)) })
}

// List implements FS.
func (m *crashFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS; a crashFS directory exists while it holds files.
func (m *crashFS) MkdirAll(string) error { return nil }

// SyncDir implements FS: the disk's entries of dir become the process's.
func (m *crashFS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	return m.do("syncdir", dir, func(bool) {
		for name := range m.disk {
			if filepath.Dir(name) == dir && m.files[name] == nil {
				delete(m.disk, name)
			}
		}
		for name, f := range m.files {
			if filepath.Dir(name) == dir {
				m.disk[name] = f
			}
		}
	})
}

// crashHandle is an open crashFS file; it stays usable after a rename or a
// remove, as an open file does.
type crashHandle struct {
	fs   *crashFS
	name string
	f    *crashFile
}

func (h *crashHandle) Write(p []byte) (int, error) {
	err := h.fs.do("write", h.name, func(last bool) {
		if last && h.fs.torn {
			p = p[:len(p)/2]
		}
		h.f.data = append(h.f.data, p...)
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

func (h *crashHandle) Sync() error {
	return h.fs.do("sync", h.name, func(bool) { h.f.synced = h.f.data[:len(h.f.data):len(h.f.data)] })
}

// Truncate shrinks the file (the stores never grow one this way).
func (h *crashHandle) Truncate(size int64) error {
	return h.fs.do("truncate", h.name, func(bool) { h.f.data = h.f.data[:size:size] })
}

func (h *crashHandle) Close() error { return nil }
