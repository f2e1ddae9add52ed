package pbft

import (
	"slices"
	"sort"
	"time"

	"gpbft/internal/consensus"
)

// Failure detection (DESIGN.md §5s, which gives the rounds timed behind
// each constant below). A round is one slot
// as this replica saw it: from accepting the slot's pre-prepare, or
// proposing it as primary, to executing it. Without a fixed timeout
// every liveness timer is based on the rounds the replica has just
// timed, so a committee fails over in rounds, not in seconds, however
// fast or slow its devices and links are.
const (
	// roundWindow is N: the rule looks back over this many rounds.
	roundWindow = 16
	// roundFactor is k: the timeout is k times the slowest of them.
	roundFactor = 4
	// minTimeout is the floor under k times the slowest round: it covers
	// a replica's catch-up pull (core's 500 ms lag grace), not a round.
	minTimeout = time.Second
	// initialTimeout stands until N rounds have been timed; it must
	// outlast the first rounds of the largest committee the harness runs.
	initialTimeout = 10 * time.Second
)

// A deadline waits for one thing: outstanding work to progress, one slot
// to execute, a held head block's round to end, or a view change to
// complete. Keys sort by kind, then slot, and deadlines are stopped in
// that order.
type wait struct {
	kind waitKind
	seq  uint64 // the slot of a slot deadline
}

type waitKind uint8

const (
	waitProgress waitKind = iota + 1
	waitSlot
	waitHold
	waitViewChange
)

var (
	progressWait   = wait{kind: waitProgress}
	holdWait       = wait{kind: waitHold}
	viewChangeWait = wait{kind: waitViewChange}
)

func slotWait(seq uint64) wait { return wait{kind: waitSlot, seq: seq} }

func (w wait) less(o wait) bool { return w.kind < o.kind || w.kind == o.kind && w.seq < o.seq }

type deadline struct {
	wait
	id consensus.TimerID
}

// Detector is a replica's failure detector: the rounds it timed, the
// backoff, and every deadline armed, in key order. The era layer owns it
// and hands each era's instance a reference, so the round window and the
// backoff outlive the era; entering an era drops the previous instance's
// deadlines without stopping them, and their late firings find nothing.
type Detector struct {
	timers *consensus.TimerAllocator
	fixed  time.Duration

	// The last roundWindow rounds timed, timed in all; backoff counts the
	// doublings of every timer since a slot last executed, and fresh marks
	// a view entered by a view change that has executed nothing yet.
	rounds  [roundWindow]time.Duration
	timed   int
	backoff int
	fresh   bool

	armed []deadline
}

// NewDetector returns a detector whose timer IDs come from timers. A
// non-zero fixed is the timeout; zero takes it from the rounds timed.
func NewDetector(timers *consensus.TimerAllocator, fixed time.Duration) *Detector {
	return &Detector{timers: timers, fixed: fixed}
}

// timeout is the base of every liveness timer: the progress timer, the
// slot timers, the view-change retry and the hold cap. A fixed timeout
// stands; otherwise it is roundFactor times the slowest of the last
// roundWindow rounds, at least minTimeout, and initialTimeout until that
// many rounds have been timed.
func (d *Detector) timeout() time.Duration {
	if d.fixed > 0 {
		return d.fixed
	}
	if d.timed < roundWindow {
		return initialTimeout
	}
	return max(minTimeout, roundFactor*slices.Max(d.rounds[:]))
}

// patience is the timeout doubled once for every view change this replica
// has had to start since a slot last executed here (PBFT's exponential
// backoff), the doubling stopping once it passes a minute so that a long
// outage cannot push the retry horizon out indefinitely.
func (d *Detector) patience() time.Duration {
	p := d.timeout()
	for i := 0; i < d.backoff && p < time.Minute; i++ {
		p *= 2
	}
	return p
}

// executed records a slot's execution, and its round if this incarnation
// timed it: a slot that executes ends the backoff.
func (d *Detector) executed(round time.Duration, timed bool) {
	if timed {
		d.rounds[d.timed%roundWindow] = round
		d.timed++
	}
	d.backoff, d.fresh = 0, false
}

// suspect is a progress or slot deadline running out. One that runs out
// in a view the last view change opened, before anything executed there,
// doubles the patience of the next: PBFT waits 2T for view v+2 when view
// v+1 executes nothing within T.
func (d *Detector) suspect() {
	if d.fresh {
		d.backoff++
	}
}

// enterEra drops every deadline without a stop: the previous instance is
// gone, and a view the era opens was not opened by a view change.
func (d *Detector) enterEra() {
	d.armed, d.fresh = nil, false
}

// find returns where w's deadline is, or would be inserted, and whether
// it is armed.
func (d *Detector) find(w wait) (int, bool) {
	i := sort.Search(len(d.armed), func(i int) bool { return !d.armed[i].less(w) })
	return i, i < len(d.armed) && d.armed[i].wait == w
}

// arm starts w's deadline unless it is armed.
func (d *Detector) arm(w wait, delay time.Duration, acts []consensus.Action) []consensus.Action {
	i, armed := d.find(w)
	if armed {
		return acts
	}
	id := d.timers.Next()
	d.armed = append(d.armed, deadline{})
	copy(d.armed[i+1:], d.armed[i:])
	d.armed[i] = deadline{w, id}
	return append(acts, consensus.StartTimer{ID: id, Delay: delay})
}

// stop stops w's deadline, if it is armed.
func (d *Detector) stop(w wait, acts []consensus.Action) []consensus.Action {
	i, armed := d.find(w)
	if !armed {
		return acts
	}
	acts = append(acts, consensus.StopTimer{ID: d.armed[i].id})
	d.armed = append(d.armed[:i], d.armed[i+1:]...)
	return acts
}

// stopFrom stops every deadline of kind k and the kinds after it, in key
// order.
func (d *Detector) stopFrom(k waitKind, acts []consensus.Action) []consensus.Action {
	i, _ := d.find(wait{kind: k})
	for _, dl := range d.armed[i:] {
		acts = append(acts, consensus.StopTimer{ID: dl.id})
	}
	d.armed = d.armed[:i]
	return acts
}

// settle answers what to arm after an engine step: the progress deadline
// while work is outstanding, stopped once it is gone. An executed block's
// transactions stay pooled until the runtime applies it, so the execution
// that re-arms the deadline may count them, and one left running from
// then would fire on the next request a whole timeout early.
func (d *Detector) settle(busy bool, acts []consensus.Action) []consensus.Action {
	if !busy {
		return d.stop(progressWait, acts)
	}
	return d.arm(progressWait, d.patience(), acts)
}

// fired answers what a firing means: the wait whose deadline it is, now
// disarmed, or false for a stale timer.
func (d *Detector) fired(id consensus.TimerID) (wait, bool) {
	for i, dl := range d.armed {
		if dl.id == id {
			d.armed = append(d.armed[:i], d.armed[i+1:]...)
			return dl.wait, true
		}
	}
	return wait{}, false
}
