// Package store provides durable persistence for a node's chain: an
// append-only block log with per-frame checksums and torn-tail
// recovery, and a replay helper that reconstructs the in-memory chain
// on restart. IoT endorsers are long-lived fixed devices; surviving a
// power cycle without resyncing the whole chain matters.
package store

import (
	"errors"
	"fmt"
	"hash/crc32"

	"gpbft/internal/types"
)

// Frame layout: 4-byte big-endian payload length, payload (canonical
// block encoding), 4-byte CRC32 (Castagnoli) of the payload.
const (
	frameHeaderSize  = 4
	frameTrailerSize = 4
	// MaxBlockFrame bounds a single persisted block.
	MaxBlockFrame = 32 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the block log.
var (
	ErrCorruptFrame = errors.New("store: corrupt frame")
	ErrLogClosed    = errors.New("store: log closed")
	ErrOutOfOrder   = errors.New("store: block height not contiguous")
)

// BlockLog is an append-only, crash-tolerant block file. A torn final
// frame (power loss mid-write) is detected on open and truncated away;
// corruption anywhere earlier is an error. Its heights are contiguous:
// first, first+1, ..., height.
type BlockLog struct {
	logFile
	first  uint64 // height of the first block held (when count > 0)
	height uint64 // height of the last appended block; 0 = none/genesis
	count  int
}

// Options configures opening a block log.
type Options struct {
	// Sync fsyncs after every append (durable but slower).
	Sync bool
}

// Open opens (or creates) the log at path on the operating system's
// file system. It returns the log and the blocks recovered, in order.
func Open(path string, opts Options) (*BlockLog, []*types.Block, error) {
	return openBlockLog(OS, path, opts.Sync)
}

// openBlockLog opens (or creates) the log at path, scanning existing
// frames and truncating a torn tail.
func openBlockLog(fsys FS, path string, sync bool) (*BlockLog, []*types.Block, error) {
	var blocks []*types.Block
	f, err := openLog(fsys, path, sync, MaxBlockFrame, collectBlocks(&blocks), func() error { return contiguous(blocks) })
	if err != nil {
		return nil, nil, err
	}
	log := &BlockLog{logFile: f, count: len(blocks)}
	if len(blocks) > 0 {
		log.first = blocks[0].Header.Height
		log.height = blocks[len(blocks)-1].Header.Height
	}
	return log, blocks, nil
}

// DecodeBlockLog decodes a block-log image: its intact frames, in
// order, which must hold contiguous heights.
func DecodeBlockLog(data []byte) ([]*types.Block, error) {
	var blocks []*types.Block
	if _, err := scanFrames(data, MaxBlockFrame, collectBlocks(&blocks)); err != nil {
		return nil, err
	}
	return blocks, contiguous(blocks)
}

// collectBlocks is the frame visitor that decodes blocks into out.
func collectBlocks(out *[]*types.Block) func([]byte) error {
	return func(body []byte) error {
		b, err := types.DecodeBlock(body)
		if err != nil {
			return err
		}
		*out = append(*out, b)
		return nil
	}
}

// contiguous refuses a log whose heights skip or repeat: Append never
// writes one.
func contiguous(blocks []*types.Block) error {
	for i := 1; i < len(blocks); i++ {
		if h := blocks[i].Header.Height; h != blocks[i-1].Header.Height+1 {
			return fmt.Errorf("%w: height %d follows %d", ErrOutOfOrder, h, blocks[i-1].Header.Height)
		}
	}
	return nil
}

// Append persists a block. Blocks must be appended in height order
// (the log mirrors the committed chain). A failed write closes the log.
func (l *BlockLog) Append(b *types.Block) error {
	if l.closed {
		return ErrLogClosed
	}
	if l.count > 0 && b.Header.Height != l.height+1 {
		return fmt.Errorf("%w: have %d, got %d", ErrOutOfOrder, l.height, b.Header.Height)
	}
	body := types.EncodeBlock(b)
	if len(body) > MaxBlockFrame {
		return fmt.Errorf("store: block frame %d exceeds limit", len(body))
	}
	if err := l.append(body); err != nil {
		return err
	}
	if l.count == 0 {
		l.first = b.Header.Height
	}
	l.height = b.Header.Height
	l.count++
	return nil
}

// Height returns the height of the last persisted block (0 if none).
func (l *BlockLog) Height() uint64 { return l.height }

// Count returns the number of persisted blocks.
func (l *BlockLog) Count() int { return l.count }

// Close flushes and closes the file.
func (l *BlockLog) Close() error { return l.close() }
