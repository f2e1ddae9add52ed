package main

// trace.go holds what the traced run installs from outside the
// program: a timing decorator on runtime.Node.Engine, a decorator on
// core.ConsensusWAL, and the span store they write to. Spans stay in
// memory and are written to <out>/<workload>.trace.json at exit.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/types"
)

// Span kinds. The names are what the trace file shows.
const (
	spanBlock = iota // one node, previous commit -> this commit; id = height
	spanInit
	spanEnvelope // id = message kind
	spanRequest
	spanTimer
	spanCommitApplied
	spanWALAppend      // parent = the engine call that caused it; id = seq
	spanBlockLogAppend // id = height
	spanSubmit         // generator: due -> Submit returned; id = offered index
	spanTx             // due -> first commit anywhere; id = offered index
	spanKinds
)

var spanNames = [spanKinds]string{
	"block", "core.init", "core.on_envelope", "core.on_request", "core.on_timer",
	"core.on_commit_applied", "store.wal_append", "store.blocklog_append", "gen.submit", "tx",
}

// maxSpans bounds the spans one run keeps (about 3 MB); calls past the
// cap are still counted and timed, only their spans are dropped.
const maxSpans = 1 << 16

// maxCaptured is how many received envelopes the run keeps for the
// layer pass to replay.
const maxCaptured = 4096

type span struct {
	kind   uint8
	parent int32 // index in the same lane, -1 for none
	id     uint64
	start  int64 // ns since the run's zero
	end    int64
}

// tracer owns one lane of spans per node plus a generator lane.
type tracer struct {
	zero    time.Time
	perNode int
	nodes   []*nodeProbe
	gen     []span
	dropped int
}

func newTracer(nodes int) *tracer {
	t := &tracer{zero: time.Now(), perNode: maxSpans / (nodes + 1)}
	for i := 0; i < nodes; i++ {
		p := &nodeProbe{t: t, node: i, cur: -1, open: -1, captureCap: maxCaptured/nodes + 1}
		p.openBlock(0)
		t.nodes = append(t.nodes, p)
	}
	return t
}

func (t *tracer) node(i int) *nodeProbe { return t.nodes[i] }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.zero)) }

// genSpan records a generator-lane span (single goroutine, or after
// the run).
func (t *tracer) genSpan(kind uint8, id uint64, start, end int64) {
	if len(t.gen) >= t.perNode {
		t.dropped++
		return
	}
	t.gen = append(t.gen, span{kind: kind, parent: -1, id: id, start: start, end: end})
}

// nodeProbe accumulates one node's counts, times and spans. A node's
// engine, WAL and commit hook all run on that node's event loop, so
// the probe needs no lock; it is read after the loop has stopped.
type nodeProbe struct {
	t    *tracer
	node int

	calls [spanKinds]uint64
	ns    [spanKinds]int64

	sends     uint64 // point-to-point transmissions asked for (fan-out counted)
	envelopes uint64 // distinct envelopes produced (one seal each)
	requestIn uint64 // OnEnvelope calls carrying a relayed request
	blocks    uint64
	inflight  uint64 // sum of in-flight slots sampled at each commit
	poolMax   int

	walNs   []int64 // every WAL append, for percentiles
	logNs   []int64 // every block-log append
	hookOps uint64  // decorator invocations, for the overhead estimate

	captured   []*consensus.Envelope
	captureCap int

	spans   []span
	cur     int32 // span of the engine call in progress
	open    int32 // the open block span
	dropped int
}

func (p *nodeProbe) add(kind uint8, parent int32, id uint64, start, end int64) int32 {
	if len(p.spans) >= p.t.perNode {
		p.dropped++
		return -1
	}
	p.spans = append(p.spans, span{kind: kind, parent: parent, id: id, start: start, end: end})
	return int32(len(p.spans) - 1)
}

func (p *nodeProbe) openBlock(start int64) {
	p.open = p.add(spanBlock, -1, 0, start, start)
}

// committed closes the node's open block span at this commit and
// samples the pipeline and pool depth.
func (p *nodeProbe) committed(height uint64, inflight, poolLen int) {
	now := p.t.since(time.Now())
	if p.open >= 0 {
		p.spans[p.open].end = now
		p.spans[p.open].id = height
	}
	p.openBlock(now)
	p.blocks++
	p.inflight += uint64(inflight)
	if poolLen > p.poolMax {
		p.poolMax = poolLen
	}
}

func (p *nodeProbe) blockLogAppend(t0, t1 time.Time, height uint64) {
	p.hookOps++
	d := int64(t1.Sub(t0))
	p.calls[spanBlockLogAppend]++
	p.ns[spanBlockLogAppend] += d
	p.logNs = append(p.logNs, d)
	p.add(spanBlockLogAppend, p.open, height, p.t.since(t0), p.t.since(t1))
}

// engineProbe decorates a consensus.Engine. It forwards
// CommitNotifiable and SyncStatsProvider so runtime.Node treats the
// wrapped engine exactly like the bare one.
type engineProbe struct {
	inner consensus.Engine
	p     *nodeProbe
}

func newEngineProbe(inner consensus.Engine, p *nodeProbe) *engineProbe {
	return &engineProbe{inner: inner, p: p}
}

// begin opens the span of an engine call; end closes it and counts
// what the call asked the runtime to do.
func (e *engineProbe) begin(kind uint8, id uint64) (time.Time, int32) {
	p := e.p
	t0 := time.Now()
	idx := p.add(kind, p.open, id, p.t.since(t0), 0)
	p.cur = idx
	return t0, idx
}

func (e *engineProbe) end(kind uint8, t0 time.Time, idx int32, acts []consensus.Action) []consensus.Action {
	p := e.p
	t1 := time.Now()
	p.hookOps++
	p.calls[kind]++
	p.ns[kind] += int64(t1.Sub(t0))
	if idx >= 0 {
		p.spans[idx].end = p.t.since(t1)
	}
	p.cur = -1
	for _, a := range acts {
		switch act := a.(type) {
		case consensus.Send:
			p.sends++
			p.envelopes++
		case consensus.Broadcast:
			p.sends += uint64(len(act.To))
			p.envelopes++
		}
	}
	return acts
}

func (e *engineProbe) Init(now consensus.Time) []consensus.Action {
	t0, idx := e.begin(spanInit, 0)
	return e.end(spanInit, t0, idx, e.inner.Init(now))
}

func (e *engineProbe) OnEnvelope(now consensus.Time, env *consensus.Envelope) []consensus.Action {
	p := e.p
	if env.MsgKind == consensus.KindRequest {
		p.requestIn++
	}
	if len(p.captured) < p.captureCap {
		p.captured = append(p.captured, env)
	}
	t0, idx := e.begin(spanEnvelope, uint64(env.MsgKind))
	return e.end(spanEnvelope, t0, idx, e.inner.OnEnvelope(now, env))
}

func (e *engineProbe) OnTimer(now consensus.Time, id consensus.TimerID) []consensus.Action {
	t0, idx := e.begin(spanTimer, uint64(id))
	return e.end(spanTimer, t0, idx, e.inner.OnTimer(now, id))
}

func (e *engineProbe) OnRequest(now consensus.Time, tx *types.Transaction) []consensus.Action {
	t0, idx := e.begin(spanRequest, tx.Nonce)
	return e.end(spanRequest, t0, idx, e.inner.OnRequest(now, tx))
}

// OnCommitApplied implements consensus.CommitNotifiable.
func (e *engineProbe) OnCommitApplied(now consensus.Time) []consensus.Action {
	cn, ok := e.inner.(consensus.CommitNotifiable)
	if !ok {
		return nil
	}
	t0, idx := e.begin(spanCommitApplied, 0)
	return e.end(spanCommitApplied, t0, idx, cn.OnCommitApplied(now))
}

// SyncStats implements runtime.SyncStatsProvider.
func (e *engineProbe) SyncStats() runtime.SyncStats {
	if sp, ok := e.inner.(runtime.SyncStatsProvider); ok {
		return sp.SyncStats()
	}
	return runtime.SyncStats{}
}

// nopEngine is what hookCostNs wraps to price the decorator alone.
type nopEngine struct{}

func (nopEngine) Init(consensus.Time) []consensus.Action { return nil }
func (nopEngine) OnEnvelope(consensus.Time, *consensus.Envelope) []consensus.Action {
	return nil
}
func (nopEngine) OnTimer(consensus.Time, consensus.TimerID) []consensus.Action { return nil }
func (nopEngine) OnRequest(consensus.Time, *types.Transaction) []consensus.Action {
	return nil
}

// walProbe decorates the consensus WAL of one node.
type walProbe struct {
	inner core.ConsensusWAL
	p     *nodeProbe
}

func (w *walProbe) Append(rec store.WALRecord) error {
	p := w.p
	t0 := time.Now()
	err := w.inner.Append(rec)
	t1 := time.Now()
	d := int64(t1.Sub(t0))
	p.hookOps++
	p.calls[spanWALAppend]++
	p.ns[spanWALAppend] += d
	p.walNs = append(p.walNs, d)
	p.add(spanWALAppend, p.cur, rec.Seq, p.t.since(t0), p.t.since(t1))
	return err
}

func (w *walProbe) Rotate(era uint64) error { return w.inner.Rotate(era) }

// --- trace file ---

type traceSpan struct {
	Name   string `json:"name"`
	Lane   string `json:"lane"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into spans, -1 for none
	ID     uint64 `json:"id"`
}

type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Env      map[string]string `json:"env"`
	Dropped  int               `json:"spans_dropped"`
	Spans    []traceSpan       `json:"spans"`
}

// write flattens the lanes into one list (parents re-indexed) and
// writes the trace file.
func (t *tracer) write(dir, workload string, seed int64, env map[string]string) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, Env: env, Dropped: t.dropped}
	emit := func(lane string, spans []span) {
		base := len(tf.Spans)
		for _, s := range spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			tf.Spans = append(tf.Spans, traceSpan{
				Name: spanNames[s.kind], Lane: lane, Start: s.start, End: s.end, Parent: parent, ID: s.id,
			})
		}
	}
	for _, p := range t.nodes {
		tf.Dropped += p.dropped
		emit("node"+strconv.Itoa(p.node), p.spans)
	}
	emit("generator", t.gen)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(&tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
