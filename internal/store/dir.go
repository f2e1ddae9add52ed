package store

import (
	"errors"
	"fmt"
	"sync/atomic"

	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

// Dir is a node's durable state, opened together on one FS: the block
// log at path, the vote WAL at path.wal and the signed era snapshots in
// path.snap/. It owns the jobs that keep the three consistent: it
// appends each committed block, compacts below the oldest retained
// snapshot at an era switch, re-anchors the block log after a snapshot
// install or a restore the log does not reach, and counts the
// snapshots it wrote and the bytes compaction reclaimed.
type Dir struct {
	opts      DirOptions
	blocks    *BlockLog
	wal       *WAL
	snaps     *SnapshotStore
	logged    []*types.Block // read at open, until Restore replays them
	recovered []WALRecord

	written, compacted atomic.Uint64
}

// DirOptions configures a durable directory.
type DirOptions struct {
	// Sync fsyncs the block log and the vote WAL after every append.
	Sync bool
	// Retain is how many era snapshots the directory keeps (0 = none:
	// no snapshot store, no compaction).
	Retain int
	// Compact truncates the block log and the chain below the oldest
	// retained snapshot at every era switch.
	Compact bool
	// Logf, when set, reports compactions, snapshot installs and failed
	// snapshot writes.
	Logf func(format string, args ...any)
}

// OpenDir opens (or creates) the durable directory at path on fsys.
func OpenDir(fsys FS, path string, opts DirOptions) (*Dir, error) {
	d := &Dir{opts: opts}
	var err error
	if d.blocks, d.logged, err = openBlockLog(fsys, path, opts.Sync); err != nil {
		return nil, fmt.Errorf("block log: %w", err)
	}
	if d.wal, d.recovered, err = openWAL(fsys, path+".wal", opts.Sync); err != nil {
		d.blocks.Close()
		return nil, fmt.Errorf("consensus wal: %w", err)
	}
	if opts.Retain > 0 {
		if d.snaps, err = openSnapshotStore(fsys, path+".snap", opts.Retain); err != nil {
			d.Close()
			return nil, fmt.Errorf("snapshot store: %w", err)
		}
	}
	return d, nil
}

// ErrLogAboveChain refuses a restart whose block log starts above the
// chain it restored and that cannot recover the blocks in between: the
// newest snapshot was refused, or no snapshot store is open. Both are a
// restart under another configuration than the one that compacted the
// log, which Restore leaves as it is.
var ErrLogAboveChain = errors.New("store: block log starts above the restored chain")

// Boot is a chain read back from a durable directory: started from
// Snapshot (nil: genesis; Refused is why the newest was not used), with
// the logged blocks above that start, of which Restore replayed Replayed.
type Boot struct {
	Chain    *ledger.Chain
	Snapshot *Snapshot
	Refused  error
	Tail     []*types.Block
	Replayed int
}

// LoadDir reads the durable directory at path read-only, as a restart
// would but without replaying: it refuses a missing block log, and it
// creates, truncates and writes nothing.
func LoadDir(fsys FS, path string, g *ledger.Genesis) (*Boot, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("block log: %w", err)
	}
	logged, err := DecodeBlockLog(data)
	if err != nil {
		return nil, fmt.Errorf("block log: %w", err)
	}
	return load(g, &SnapshotStore{fs: fsys, dir: path + ".snap"}, logged)
}

// load starts the chain from the newest verifiable snapshot in snaps
// the genesis accepts, or from genesis, and returns it with the logged
// blocks above it, unapplied.
func load(g *ledger.Genesis, snaps *SnapshotStore, logged []*types.Block) (*Boot, error) {
	b := &Boot{}
	if snaps != nil {
		if snap, err := snaps.Latest(); err == nil && snap != nil {
			if chain, err := ledger.RestoreChain(g, snap.State); err != nil {
				b.Refused = fmt.Errorf("snapshot at height %d: %w", snap.Height(), err)
			} else {
				b.Chain, b.Snapshot = chain, snap
			}
		}
	}
	if b.Chain == nil {
		chain, err := ledger.NewChain(g)
		if err != nil {
			return nil, err
		}
		b.Chain = chain
	}
	for i, blk := range logged {
		if blk.Header.Height > b.Chain.Height() {
			b.Tail = logged[i:]
			break
		}
	}
	return b, nil
}

// Restore loads the chain and replays the logged blocks that extend it.
// The block log must then end at the chain's head, or the next commit
// could not append. A log that ends below it (a crash between an era's
// boundary snapshot and the append of its block) holds only blocks the
// snapshot covers, and is re-anchored empty. A log that starts above it
// is refused with ErrLogAboveChain, untouched, when the snapshot was
// refused or none is kept; when every snapshot that covered its start
// is lost, it can never be replayed, and is re-anchored too: the node
// recovers from its peers.
func (d *Dir) Restore(g *ledger.Genesis) (*Boot, error) {
	b, err := load(g, d.snaps, d.logged)
	if err != nil {
		return nil, err
	}
	d.logged = nil
	if len(b.Tail) > 0 && b.Tail[0].Header.Height != b.Chain.Height()+1 {
		gap := fmt.Errorf("%w: log from height %d, chain at %d", ErrLogAboveChain, b.Tail[0].Header.Height, b.Chain.Height())
		if b.Refused != nil {
			return nil, fmt.Errorf("%w: %w", gap, b.Refused)
		}
		if d.snaps == nil {
			return nil, fmt.Errorf("%w, and no snapshot store is open", gap)
		}
		d.logf("WARNING: %v, and no snapshot covers it (discarding the log)", gap)
	}
	for _, blk := range b.Tail {
		if blk.Header.Height != b.Chain.Height()+1 {
			break
		}
		if err := b.Chain.AddBlock(blk); err != nil {
			return nil, fmt.Errorf("replay block %d: %w", blk.Header.Height, err)
		}
		b.Replayed++
	}
	if d.blocks.Count() > 0 && d.blocks.Height() != b.Chain.Height() {
		if _, err := d.compact(d.blocks.Height() + 1); err != nil {
			return nil, fmt.Errorf("re-anchor block log: %w", err)
		}
	}
	return b, nil
}

// Err returns the write failure that closed the block log or the vote
// WAL, nil while both are healthy.
func (d *Dir) Err() error {
	if d.blocks.failed != nil {
		return d.blocks.failed
	}
	return d.wal.Err()
}

// WAL returns the vote WAL and Recovered the records read from it.
func (d *Dir) WAL() *WAL              { return d.wal }
func (d *Dir) Recovered() []WALRecord { return d.recovered }

// Snapshots returns the snapshot store, nil when none is kept.
func (d *Dir) Snapshots() *SnapshotStore { return d.snaps }

// Publish adds a snapshot this node signed at an era boundary. A
// failed write loses this snapshot only.
func (d *Dir) Publish(snap *Snapshot) {
	if err := d.snaps.Add(snap); err != nil {
		d.logf("WARNING: snapshot write at height %d: %v", snap.Height(), err)
		return
	}
	d.written.Add(1)
}

// Committed appends a committed block to the block log.
func (d *Dir) Committed(b *types.Block) error { return d.blocks.Append(b) }

// EraSwitched compacts the block log and the chain below the oldest
// retained snapshot, which is the durable history below it.
func (d *Dir) EraSwitched(chain *ledger.Chain) {
	if d.snaps == nil || !d.opts.Compact {
		return
	}
	floor := d.snaps.OldestHeight()
	if floor == 0 {
		return
	}
	if n, err := d.compact(floor + 1); err != nil {
		d.logf("WARNING: block log compaction: %v", err)
	} else if n > 0 {
		d.logf("compacted block log below height %d (%d bytes reclaimed)", floor+1, n)
	}
	chain.CompactBelow(floor)
}

// SnapshotInstalled re-anchors the block log at an installed peer
// snapshot: the chain jumped to height wholesale, and nothing logged
// below it can connect again.
func (d *Dir) SnapshotInstalled(era, height uint64) {
	d.logf("installed peer snapshot era=%d height=%d", era, height)
	if _, err := d.compact(height + 1); err != nil {
		d.logf("WARNING: block log compaction: %v", err)
	}
}

func (d *Dir) compact(keepFrom uint64) (int64, error) {
	n, err := d.blocks.CompactBelow(keepFrom)
	d.compacted.Add(uint64(n))
	return n, err
}

func (d *Dir) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// Counts returns how many era snapshots Publish wrote and how many
// block-log bytes compaction reclaimed (zeros on a nil Dir).
func (d *Dir) Counts() (snapshots, compacted uint64) {
	if d == nil {
		return 0, 0
	}
	return d.written.Load(), d.compacted.Load()
}

// Close syncs and closes the block log and the vote WAL.
func (d *Dir) Close() error {
	err := d.blocks.Close()
	if werr := d.wal.Close(); err == nil {
		err = werr
	}
	return err
}
