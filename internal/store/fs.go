package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the file seam every store in this package writes through:
// exactly the operations the block log, the vote WAL and the snapshot
// store use. OS is the operating system's; MemFS keeps the files in
// memory and can be crashed.
type FS interface {
	// OpenAppend opens name for appending, creating it when missing.
	OpenAppend(name string) (File, error)
	// Create opens name for writing, truncating it first.
	Create(name string) (File, error)
	// ReadFile returns the whole content of name.
	ReadFile(name string) ([]byte, error)
	Rename(from, to string) error
	Remove(name string) error
	// List returns the names of the files in dir, sorted; a missing dir
	// holds none.
	List(dir string) ([]string, error)
	MkdirAll(dir string) error
	// SyncDir makes the entries of dir (creations, renames, removals)
	// durable.
	SyncDir(dir string) error
}

// File is an open file of an FS. Writes append.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(from, to string) error         { return os.Rename(from, to) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }

func (osFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// SyncDir fsyncs a directory: without it a freshly created or renamed
// file's entry can vanish after power loss even though its data blocks
// were written.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// MemFS is an in-memory FS. The simulated clusters keep each node's
// durable directory on one: its files outlive the node's simulated
// crash, as files outlive a killed process. Syncs are no-ops.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct{ data []byte }

// NewMemFS returns an empty in-memory file system.
func NewMemFS() *MemFS { return &MemFS{files: map[string]*memFile{}} }

func (m *MemFS) open(name string, truncate bool) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	f := m.files[name]
	if f == nil {
		f = &memFile{}
		m.files[name] = f
	}
	if truncate {
		f.data = nil
	}
	return &memHandle{m, f}, nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) { return m.open(name, false) }

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) { return m.open(name, true) }

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[filepath.Clean(name)]
	if f == nil {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), f.data...), nil
}

// Rename implements FS.
func (m *MemFS) Rename(from, to string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[filepath.Clean(from)]
	if f == nil {
		return notExist("rename", from)
	}
	delete(m.files, filepath.Clean(from))
	m.files[filepath.Clean(to)] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[filepath.Clean(name)] == nil {
		return notExist("remove", name)
	}
	delete(m.files, filepath.Clean(name))
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
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

// MkdirAll and SyncDir implement FS: a MemFS directory exists while it
// holds files, and its entries need no sync.
func (m *MemFS) MkdirAll(string) error { return nil }
func (m *MemFS) SyncDir(string) error  { return nil }

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// memHandle is an open MemFS file; like an open file, it outlives a
// rename or a remove of its name.
type memHandle struct {
	m *MemFS
	f *memFile
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Truncate(size int64) error {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	h.f.data = h.f.data[:size]
	return nil
}

func (h *memHandle) Sync() error  { return nil }
func (h *memHandle) Close() error { return nil }
