package transport

import (
	"context"
	"sync"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
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

// Run processes events until ctx is cancelled or the node halts. It
// starts the engine on entry. A received envelope arrives with its
// signature work done by the connection that read it
// (TCP.deliverPayload).
func (r *Runner) Run(ctx context.Context) {
	defer r.stopTimers()
	r.node.Start(r.now())
	for r.node.Halted() == nil {
		select {
		case <-ctx.Done():
			return
		case env := <-r.tcp.Incoming():
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

// stopTimers cancels every pending timer and refuses new ones.
func (r *Runner) stopTimers() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for id, t := range r.timers {
		t.Stop()
		delete(r.timers, id)
	}
}
