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

// App implements pbft.Application, the surface engines drive blocks
// through, backed by a chain and a mempool.
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

// Head returns the newest block applied to the chain.
func (a *App) Head() *types.Block { return a.chain.Head() }

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

// BuildBlock assembles the next block on the applied head, or returns
// nil when there is nothing to propose: BuildBlockOn's head case.
func (a *App) BuildBlock(now consensus.Time, era, view, seq uint64) *types.Block {
	return a.BuildBlockOn(now, era, view, seq, a.chain.Head(), nil)
}

// BuildBlockOn implements pbft.Application: assemble the block at seq
// on top of parent from pending transactions, skipping those in exclude,
// or return nil when there is nothing to propose. Proposed transactions
// stay in the pool until their block is applied, so the engine excludes
// everything packed below seq but not yet applied.
//
// How much goes in turns on one fact, whether parent is the applied
// chain head. On the head the block is eager: whatever is pending, up to
// a size that grows with the backlog (effectiveBatch). On an in-flight
// parent the block is FULL — the ceiling, or the base batch when no
// ceiling is set — or nothing. Every round costs each replica ~4f vote
// checks whatever its block carries, so a second slot is worth opening
// only for a backlog the head block cannot carry: while the head slot
// runs, the backlog grows into the next head block, and a slot opened on
// part of it would split one full round into several smaller ones.
func (a *App) BuildBlockOn(now consensus.Time, era, view, seq uint64, parent *types.Block, exclude map[gcrypto.Hash]bool) *types.Block {
	if parent == nil || seq != parent.Header.Height+1 {
		return nil
	}
	want, eager := a.MinSpeculativeBatch(), types.SameBlock(parent, a.chain.Head())
	if eager {
		want = a.effectiveBatch()
	}
	txs := a.pool.Peek(want + len(exclude))
	if len(exclude) > 0 {
		kept := txs[:0]
		for i := range txs {
			if !exclude[txs[i].ID()] {
				if kept = append(kept, txs[i]); len(kept) == want {
					break
				}
			}
		}
		txs = kept
	}
	if len(txs) == 0 || !eager && len(txs) < want {
		return nil
	}
	// Block time never runs backwards (ledger.ErrTimeRegressed): a clock
	// behind the parent's proposer stamps the parent's time.
	stamp := a.WallTime(now)
	if stamp.Before(parent.Header.Timestamp) {
		stamp = parent.Header.Timestamp
	}
	return types.NewBlock(types.BlockHeader{
		Height:    seq,
		Era:       era,
		View:      view,
		Seq:       seq,
		PrevHash:  parent.Hash(),
		Proposer:  a.self,
		Timestamp: stamp,
	}, txs)
}

// MinSpeculativeBatch implements pbft.Application: the full block
// BuildBlockOn insists on off the head, the ceiling (the base batch if
// none is set).
func (a *App) MinSpeculativeBatch() int { return max(a.batch, a.maxBatch) }

// BaseBatch implements pbft.Application: the configured block size,
// below any ceiling.
func (a *App) BaseBatch() int { return a.batch }

// ValidateBlockOn implements pbft.Application: b as the child of parent
// (see ledger.Chain.ValidateBlockOn).
func (a *App) ValidateBlockOn(b, parent *types.Block) error {
	return a.chain.ValidateBlockOn(b, parent)
}

// SubmitTx implements pbft.Application: verify, dedup, enqueue. The
// pool holds a sealed copy (types.Transaction.Sealed), so every later
// ID, root and cache lookup reads the digests it carries.
func (a *App) SubmitTx(tx *types.Transaction) error {
	tx = tx.Sealed()
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
	// applies. The pool has no invalid-tx eviction and BuildBlockOn does
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

// PooledTx implements pbft.Application.
func (a *App) PooledTx(id gcrypto.Hash) *types.Transaction { return a.pool.Get(id) }

// Commit applies a decided block to the chain and clears its
// transactions from the pool.
func (a *App) Commit(b *types.Block) error {
	if err := a.chain.AddBlock(b); err != nil {
		return fmt.Errorf("runtime: commit height %d: %w", b.Header.Height, err)
	}
	a.pool.MarkCommitted(b.Txs)
	return nil
}
