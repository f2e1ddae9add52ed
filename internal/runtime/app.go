package runtime

import (
	"fmt"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

// DefaultBatchSize is the maximum transactions packed per block.
const DefaultBatchSize = 64

// App implements the Application surface engines drive blocks through,
// backed by a chain and a mempool.
type App struct {
	chain *ledger.Chain
	pool  *Mempool
	self  gcrypto.Address
	// epoch anchors consensus.Time (relative) to wall-clock block
	// timestamps.
	epoch time.Time
	batch int
	// maxBatch, when above batch, enables adaptive block sizing: a deep
	// mempool backlog produces fuller blocks (up to maxBatch) instead of
	// more consensus rounds.
	maxBatch int
}

// NewApp wires an application for one node.
func NewApp(chain *ledger.Chain, pool *Mempool, self gcrypto.Address, epoch time.Time, batchSize int) *App {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &App{chain: chain, pool: pool, self: self, epoch: epoch, batch: batchSize}
}

// SetMaxBatch sets the adaptive block-size ceiling (values at or below
// the base batch size disable adaptation).
func (a *App) SetMaxBatch(max int) { a.maxBatch = max }

// effectiveBatch scales the block size with mempool depth, clamped to
// [batch, maxBatch].
func (a *App) effectiveBatch() int {
	if a.maxBatch <= a.batch {
		return a.batch
	}
	want := a.pool.Len()
	if want < a.batch {
		return a.batch
	}
	if want > a.maxBatch {
		return a.maxBatch
	}
	return want
}

// Chain returns the underlying chain.
func (a *App) Chain() *ledger.Chain { return a.chain }

// Pool returns the mempool.
func (a *App) Pool() *Mempool { return a.pool }

// WallTime converts engine time to wall-clock time.
func (a *App) WallTime(now consensus.Time) time.Time { return a.epoch.Add(now) }

// CommitLatency measures how long a block took from proposal to local
// commit: the block timestamp is the proposer's WallTime at proposal,
// so the difference to the local WallTime at commit is the consensus
// latency (plus clock skew, in real deployments). Feeds the admission
// controller's EWMA.
func (a *App) CommitLatency(now consensus.Time, b *types.Block) time.Duration {
	return a.WallTime(now).Sub(b.Header.Timestamp)
}

// BuildBlock implements consensus.Application: it assembles the next
// block from pending transactions, or returns nil when there is
// nothing to propose.
func (a *App) BuildBlock(now consensus.Time, era, view, seq uint64) *types.Block {
	head := a.chain.Head()
	if seq != head.Header.Height+1 {
		return nil // engine and chain disagree; sync first
	}
	txs := a.pool.Peek(a.effectiveBatch())
	if len(txs) == 0 {
		return nil
	}
	return types.NewBlock(types.BlockHeader{
		Height:    seq,
		Era:       era,
		View:      view,
		Seq:       seq,
		PrevHash:  head.Hash(),
		Proposer:  a.self,
		Timestamp: a.WallTime(now),
	}, txs)
}

// BuildBlockOn implements pbft.SpeculativeApplication: assemble the
// block at seq on top of an in-flight (uncommitted) parent. Proposed
// transactions stay in the pool until their block is applied, so the
// exclude set filters out everything already packed below seq.
//
// A speculative slot must carry a FULL base batch or nothing: every
// block costs a fixed amount of per-node message processing, so eagerly
// claiming extra slots for trickle-sized remainders multiplies rounds
// without moving more transactions. The head slot (BuildBlock) stays
// eager for latency; pipeline depth beyond it adapts to real backlog.
func (a *App) BuildBlockOn(now consensus.Time, era, view, seq uint64, parent *types.Block, exclude map[gcrypto.Hash]bool) *types.Block {
	if parent == nil || seq != parent.Header.Height+1 {
		return nil
	}
	want := a.effectiveBatch()
	peeked := a.pool.Peek(want + len(exclude))
	txs := make([]types.Transaction, 0, want)
	for i := range peeked {
		if exclude[peeked[i].ID()] {
			continue
		}
		txs = append(txs, peeked[i])
		if len(txs) == want {
			break
		}
	}
	if len(txs) < a.batch {
		return nil
	}
	return types.NewBlock(types.BlockHeader{
		Height:    seq,
		Era:       era,
		View:      view,
		Seq:       seq,
		PrevHash:  parent.Hash(),
		Proposer:  a.self,
		Timestamp: a.WallTime(now),
	}, txs)
}

// MinSpeculativeBatch implements pbft.SpeculativeApplication: the full
// base batch BuildBlockOn insists on.
func (a *App) MinSpeculativeBatch() int { return a.batch }

// ValidateBlock implements consensus.Application.
func (a *App) ValidateBlock(b *types.Block) error {
	return a.chain.ValidateBlock(b)
}

// ValidateBlockOn implements pbft.SpeculativeApplication.
func (a *App) ValidateBlockOn(b, parent *types.Block) error {
	return a.chain.ValidateBlockAgainst(b, parent)
}

// SubmitTx implements pbft.Application: verify, dedup, enqueue.
func (a *App) SubmitTx(tx *types.Transaction) error {
	// VerifyCached: submission, relay, and block validation all check
	// the same signature; the first accept is memoized for the rest.
	if err := tx.VerifyCached(); err != nil {
		return err
	}
	// An already-committed transaction is a stale re-submission (a
	// re-disseminated request, or a client retrying across a snapshot
	// install); pooling it would only produce duplicate-tx rejections at
	// validation time.
	if _, committed := a.chain.FindTx(tx.ID()); committed {
		return nil
	}
	// Admission pre-screen with the exact per-tx rules block validation
	// applies. The pool has no invalid-tx eviction and BuildBlock does
	// no per-tx filtering, so a pooled block-invalid tx would be packed
	// by honest proposers and stall consensus on repeated rejection;
	// refusing it here keeps admission and validation from diverging.
	if err := a.chain.CheckTxAdmissible(tx); err != nil {
		return err
	}
	err := a.pool.Add(tx)
	if err == ErrTxDuplicate {
		return nil // idempotent submission
	}
	return err
}

// PendingTxs implements pbft.Application.
func (a *App) PendingTxs() int { return a.pool.Len() }

// PendingList implements pbft.Application.
func (a *App) PendingList(max int) []types.Transaction { return a.pool.Peek(max) }

// Commit applies a decided block to the chain and clears its
// transactions from the pool.
func (a *App) Commit(b *types.Block) error {
	if err := a.chain.AddBlock(b); err != nil {
		return fmt.Errorf("runtime: commit height %d: %w", b.Header.Height, err)
	}
	a.pool.MarkCommitted(b.Txs)
	return nil
}
