package store

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
)

// SnapshotTag versions the snapshot wire format.
const SnapshotTag = "gpbft/snapshot/v1"

// MaxSnapshotFrame bounds one snapshot file frame. The state encoding
// itself is capped at codec.MaxBytesLen; the frame adds envelope
// overhead.
const MaxSnapshotFrame = 24 << 20

// ErrCorruptSnapshot wraps every way a snapshot can fail to decode or
// authenticate: torn files, bit flips, non-minimal varints, truncated
// records, bad signatures. Callers branch on this one error to fall
// back to full replay; partial state is never installed.
var ErrCorruptSnapshot = errors.New("store: corrupt snapshot")

// Snapshot is a signed chain-state checkpoint. The producer signature
// proves attribution (who published these bytes); correctness of the
// state itself is anchored separately, in a quorum of peer-reported
// roots at fast-sync time, or in local trust for a node reloading its
// own file.
type Snapshot struct {
	State       *ledger.ChainState
	Producer    gcrypto.Address
	ProducerPub []byte
	Signature   []byte
}

// signingDigest is the domain-separated message the producer signs:
// the tag plus the state root, committing to the full canonical state.
func signingDigest(root gcrypto.Hash) []byte {
	w := codec.NewWriter(64)
	w.String(SnapshotTag)
	w.Raw(root[:])
	return w.Bytes()
}

// NewSnapshot signs st as kp.
func NewSnapshot(st *ledger.ChainState, kp *gcrypto.KeyPair) *Snapshot {
	return &Snapshot{
		State:       st,
		Producer:    kp.Address(),
		ProducerPub: append([]byte(nil), kp.Public()...),
		Signature:   kp.Sign(signingDigest(st.Root())),
	}
}

// Height returns the checkpoint height.
func (s *Snapshot) Height() uint64 { return s.State.Height() }

// Era returns the checkpoint era.
func (s *Snapshot) Era() uint64 { return s.State.Era }

// Root returns the state root the producer signed.
func (s *Snapshot) Root() gcrypto.Hash { return s.State.Root() }

// Verify checks the producer signature and key-address binding.
func (s *Snapshot) Verify() error {
	if len(s.ProducerPub) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad producer key", ErrCorruptSnapshot)
	}
	if err := gcrypto.Verify(s.ProducerPub, s.Producer, signingDigest(s.State.Root()), s.Signature); err != nil {
		return fmt.Errorf("%w: signature: %v", ErrCorruptSnapshot, err)
	}
	return nil
}

var errSnapshotTag = errors.New("bad tag")

// Canonical states the snapshot's format: the state travels as its own
// canonical encoding, length-prefixed, and a decode reads it from those
// bytes once the fields around them have read cleanly.
func (s *Snapshot) Canonical(c codec.Coder) {
	c.Tag(SnapshotTag, errSnapshotTag)
	var state []byte
	if !c.Decoding() {
		state = ledger.EncodeChainState(s.State)
	}
	c.Bytes(&state)
	c.Raw(s.Producer[:])
	c.Bytes(&s.ProducerPub)
	c.Bytes(&s.Signature)
	if c.Decoding() && c.Err() == nil {
		st, err := ledger.DecodeChainState(state)
		if err != nil {
			c.Fail(fmt.Errorf("state: %v", err))
		}
		s.State = st
	}
}

// EncodeSnapshot returns the wire bytes of s.
func EncodeSnapshot(s *Snapshot) []byte { return codec.Marshal(s) }

// DecodeSnapshot parses wire bytes. Every failure — framing, codec,
// shape — comes back wrapped in ErrCorruptSnapshot.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	s, err := codec.Unmarshal[Snapshot](b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSnapshot, err)
	}
	return s, nil
}

// WriteSnapshotFile atomically publishes a snapshot on the operating
// system's file system: a crash at any point leaves either the old file
// or the new one, never a torn hybrid.
func WriteSnapshotFile(path string, s *Snapshot) error { return writeSnapshot(OS, path, s) }

// writeSnapshot publishes the CRC-framed encoding of s at path.
func writeSnapshot(fsys FS, path string, s *Snapshot) error {
	body := EncodeSnapshot(s)
	if len(body) > MaxSnapshotFrame {
		return fmt.Errorf("store: snapshot %d bytes exceeds frame limit", len(body))
	}
	_, err := replaceFile(fsys, path, encodeFrame(body))
	return err
}

// ReadSnapshotFile loads and decodes one snapshot file. Unlike the
// append-only logs, a snapshot is all-or-nothing: a torn or damaged
// frame is ErrCorruptSnapshot, never a usable prefix.
func ReadSnapshotFile(path string) (*Snapshot, error) { return readSnapshot(OS, path) }

func readSnapshot(fsys FS, path string) (*Snapshot, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshotFile(data)
}

// DecodeSnapshotFile parses the on-disk frame layout (one CRC frame
// holding the snapshot encoding, nothing else).
func DecodeSnapshotFile(data []byte) (*Snapshot, error) {
	body, end, ok := frameAt(data, MaxSnapshotFrame)
	if !ok || end != len(data) {
		return nil, fmt.Errorf("%w: torn, damaged or trailing data", ErrCorruptSnapshot)
	}
	return DecodeSnapshot(body)
}

// SnapshotStore keeps the last K snapshots as files in a directory: the
// surface the fast-sync engine reads and writes.
type SnapshotStore struct {
	mu     sync.Mutex
	fs     FS
	dir    string
	retain int
}

// DefaultRetainSnapshots is the default retention depth.
const DefaultRetainSnapshots = 2

// openSnapshotStore opens (creating if needed) a snapshot directory.
func openSnapshotStore(fsys FS, dir string, retain int) (*SnapshotStore, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: snapshot dir: %w", err)
	}
	return &SnapshotStore{fs: fsys, dir: dir, retain: retain}, nil
}

func snapshotFileName(height uint64) string {
	return fmt.Sprintf("snap-%016d.gsnap", height)
}

// files lists snapshot filenames ascending by height (List sorts, and
// the zero-padded name sorts numerically).
func (s *SnapshotStore) files() ([]string, error) {
	all, err := s.fs.List(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, name := range all {
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".gsnap") {
			names = append(names, name)
		}
	}
	return names, nil
}

// Add atomically publishes snap and prunes beyond the retention depth.
func (s *SnapshotStore) Add(snap *Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := writeSnapshot(s.fs, filepath.Join(s.dir, snapshotFileName(snap.Height())), snap); err != nil {
		return err
	}
	names, err := s.files()
	if err != nil {
		return nil // published fine; retention is best effort
	}
	for len(names) > s.retain {
		s.fs.Remove(filepath.Join(s.dir, names[0]))
		names = names[1:]
	}
	return nil
}

// Latest returns the newest snapshot that decodes and verifies,
// skipping damaged files, or (nil, nil) when none survive.
func (s *SnapshotStore) Latest() (*Snapshot, error) { return s.first(true) }

// OldestHeight returns the checkpoint height of the oldest retained
// valid snapshot (0 when none) — the compaction floor: blocks at or
// below it may be truncated, because any restart can start from a
// retained snapshot instead.
func (s *SnapshotStore) OldestHeight() uint64 {
	if snap, err := s.first(false); err == nil && snap != nil {
		return snap.Height()
	}
	return 0
}

// first returns the first snapshot that decodes and verifies, scanning
// from the newest file when newest is set and from the oldest otherwise.
func (s *SnapshotStore) first(newest bool) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names, err := s.files()
	if err != nil {
		return nil, err
	}
	if newest {
		slices.Reverse(names)
	}
	for _, name := range names {
		snap, err := readSnapshot(s.fs, filepath.Join(s.dir, name))
		if err == nil && snap.Verify() == nil {
			return snap, nil
		}
	}
	return nil, nil
}

// Len returns how many snapshot files are retained (corrupt ones too).
func (s *SnapshotStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	names, _ := s.files()
	return len(names)
}
