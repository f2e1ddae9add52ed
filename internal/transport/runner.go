package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/types"
)

// Runner drives a runtime.Node in real time over a TCP endpoint. All
// engine events (received envelopes, timer expiries, local
// submissions) are serialized through one event loop, preserving the
// single-threaded discipline engines require.
type Runner struct {
	node *runtime.Node
	tcp  *TCP

	start  time.Time
	events chan runnerEvent

	mu     sync.Mutex
	timers map[consensus.TimerID]*time.Timer
	closed bool
}

type runnerEvent struct {
	env   *consensus.Envelope
	timer consensus.TimerID
	tx    *types.Transaction
	errCh chan error
}

// NewRunner wires a node to a TCP endpoint. It installs itself as the
// node's executor; call Run to start processing.
func NewRunner(node *runtime.Node, tcp *TCP) *Runner {
	r := &Runner{
		node:   node,
		tcp:    tcp,
		start:  time.Now(),
		events: make(chan runnerEvent, 8192),
		timers: make(map[consensus.TimerID]*time.Timer),
	}
	node.Exec = r
	return r
}

// now returns engine time: elapsed real time since the runner started.
func (r *Runner) now() consensus.Time { return time.Since(r.start) }

// Stats snapshots the transport layer this runner drives; together
// with the node's runtime counters it is what the -metrics-addr
// endpoint of cmd/gpbft-node exports.
func (r *Runner) Stats() Stats { return r.tcp.Stats() }

// Node returns the runtime node this runner drives (its counters
// complement the transport stats for observability).
func (r *Runner) Node() *runtime.Node { return r.node }

// Send implements runtime.Executor.
func (r *Runner) Send(to gcrypto.Address, env *consensus.Envelope) {
	_ = r.tcp.Send(to, env)
}

// SetTimer implements runtime.Executor.
func (r *Runner) SetTimer(id consensus.TimerID, delay consensus.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.timers[id] = time.AfterFunc(delay, func() {
		select {
		case r.events <- runnerEvent{timer: id}:
		default:
			// Event queue saturated; the engine tolerates a lost timer
			// (it re-arms on the next event).
		}
	})
}

// CancelTimer implements runtime.Executor.
func (r *Runner) CancelTimer(id consensus.TimerID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timers[id]; ok {
		t.Stop()
		delete(r.timers, id)
	}
}

// Submit injects a local transaction and reports acceptance.
func (r *Runner) Submit(tx *types.Transaction) error {
	errCh := make(chan error, 1)
	r.events <- runnerEvent{tx: tx, errCh: errCh}
	return <-errCh
}

// preVerifyEnabled gates the runner's pipelined verification stage;
// the serial ablation baseline in gpbft-bench turns it off so incoming
// envelopes hit the event loop unverified, as the seed did.
var preVerifyEnabled atomic.Bool

func init() { preVerifyEnabled.Store(true) }

// SetPreVerify toggles pipelined envelope pre-verification for all
// runners; returns the previous setting.
func SetPreVerify(on bool) bool { return preVerifyEnabled.Swap(on) }

// verifyJob is one incoming envelope in flight through the
// pre-verification stage.
type verifyJob struct {
	env  *consensus.Envelope
	done chan struct{}
}

// preVerify runs on a worker goroutine: it performs the expensive
// signature work an envelope is sure to need — the envelope seal, plus
// the transaction signatures a request or proposal carries — so the
// serial event loop finds every check memoized. Failures are not
// acted on here: an envelope that fails is still delivered, and the
// engine's own Open rejects it exactly as it would have without the
// pipeline (only success is memoized, so semantics are unchanged).
//
// Prepares, commits and checkpoints are deliberately NOT verified here.
// Only the engine can tell whether a vote still counts (pbft.admitVote):
// a phase needs 2f or 2f+1 of the n-1 votes sent for it, and checking
// the rest up front is the single largest CPU cost of a round.
func preVerify(env *consensus.Envelope) {
	switch env.MsgKind {
	case consensus.KindRelay:
		// A relay frame is unsealed by design; the work to front-load is
		// decoding the batch (memoized on the envelope — the event loop
		// reuses this result) and pre-verifying each inner envelope.
		// Recursion is safe: the decoder rejects nested relay frames.
		entries, err := env.RelayEntries()
		if err != nil {
			return
		}
		for i := range entries {
			preVerify(entries[i].Env)
		}
	case consensus.KindRequest:
		// Request envelopes skip the seal check end to end (see
		// pbft.onRequestEnv): the transaction inside is what
		// authenticates, so that is what gets warmed.
		var req pbft.Request
		if consensus.OpenUnverified(env, consensus.KindRequest, &req) == nil {
			types.PrewarmTxs([]types.Transaction{req.Tx})
		}
	case consensus.KindPrepare, consensus.KindCommit, consensus.KindCheckpoint:
	case consensus.KindPrePrepare:
		// The pipelining payoff: the next block's transaction batch
		// verifies here, in parallel, while the event loop is still
		// finishing the previous instance's commit.
		var pp pbft.PrePrepare
		if consensus.Open(env, consensus.KindPrePrepare, &pp) == nil {
			types.PrewarmTxs(pp.Block.Txs)
		}
	default:
		_ = env.Verify() // warms the memo; the engine acts on the verdict
	}
}

// startPipeline spawns the pre-verification stage: a feeder that tags
// incoming envelopes with an ordered job, a worker pool that verifies
// them concurrently, and an orderer that releases envelopes to the
// returned channel strictly in arrival order. The event loop stays the
// single writer of engine state; only pure signature checks fan out.
func (r *Runner) startPipeline(ctx context.Context) <-chan *consensus.Envelope {
	ordered := make(chan verifyJob, 8192)
	work := make(chan verifyJob, 8192)
	out := make(chan *consensus.Envelope, 8192)

	workers := gcrypto.BatchWorkers()
	for i := 0; i < workers; i++ {
		go func() {
			for job := range work {
				if preVerifyEnabled.Load() {
					preVerify(job.env)
				}
				close(job.done)
			}
		}()
	}
	// Feeder: preserve arrival order in `ordered` while handing the
	// same job to the workers.
	go func() {
		defer close(ordered)
		defer close(work)
		for {
			select {
			case <-ctx.Done():
				return
			case env := <-r.tcp.Incoming():
				job := verifyJob{env: env, done: make(chan struct{})}
				select {
				case <-ctx.Done():
					return
				case work <- job:
				}
				select {
				case <-ctx.Done():
					return
				case ordered <- job:
				}
			}
		}
	}()
	// Orderer: release each envelope only when verified, in order.
	go func() {
		defer close(out)
		for job := range ordered {
			<-job.done
			select {
			case <-ctx.Done():
				return
			case out <- job.env:
			}
		}
	}()
	return out
}

// Run processes events until ctx is cancelled. It starts the engine on
// entry.
func (r *Runner) Run(ctx context.Context) {
	r.node.Start(r.now())
	incoming := r.startPipeline(ctx)
	for {
		select {
		case <-ctx.Done():
			r.mu.Lock()
			r.closed = true
			for id, t := range r.timers {
				t.Stop()
				delete(r.timers, id)
			}
			r.mu.Unlock()
			return
		case env, ok := <-incoming:
			if !ok {
				incoming = nil // pipeline drained at shutdown
				continue
			}
			r.node.Deliver(r.now(), env)
		case ev := <-r.events:
			switch {
			case ev.timer != 0:
				r.mu.Lock()
				delete(r.timers, ev.timer)
				r.mu.Unlock()
				r.node.Fire(r.now(), ev.timer)
			case ev.tx != nil:
				err := r.node.Submit(r.now(), ev.tx)
				if ev.errCh != nil {
					ev.errCh <- err
				}
			}
		}
	}
}
