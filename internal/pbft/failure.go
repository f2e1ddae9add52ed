package pbft

import (
	"time"

	"gpbft/internal/consensus"
)

// Failure detection (DESIGN.md §5s, which gives the rounds timed behind
// each constant below). A round is one slot
// as this replica saw it: from accepting the slot's pre-prepare, or
// proposing it as primary, to executing it. Without a fixed
// Config.ViewChangeTimeout every liveness timer is based on the rounds
// the replica has just timed, so a committee fails over in rounds, not in
// seconds, however fast or slow its devices and links are.
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

// Timeout is the base of every liveness timer: the progress timer, the
// slot timers, the view-change retry and the hold cap. A non-zero
// Config.ViewChangeTimeout fixes it; otherwise it is roundFactor times
// the slowest of the last roundWindow rounds, at least minTimeout, and
// initialTimeout until that many rounds have been timed.
func (e *Engine) Timeout() time.Duration {
	if e.cfg.ViewChangeTimeout > 0 {
		return e.cfg.ViewChangeTimeout
	}
	if e.roundsTimed < roundWindow {
		return initialTimeout
	}
	slowest := e.rounds[0]
	for _, r := range e.rounds[1:] {
		slowest = max(slowest, r)
	}
	return max(minTimeout, roundFactor*slowest)
}

// patience is the timeout doubled once for every view change this replica
// has had to start since a slot last executed here (PBFT's exponential
// backoff), the doubling stopping once it passes a minute so that a long
// outage cannot push the retry horizon out indefinitely.
func (e *Engine) patience() time.Duration {
	d := e.Timeout()
	for i := 0; i < e.backoff && d < time.Minute; i++ {
		d *= 2
	}
	return d
}

// timedOut deposes the primary when a progress or slot timer fires. A
// timer that runs out in a view the last view change opened, before
// anything executed there, doubles the patience of the next: PBFT waits
// 2T for view v+2 when view v+1 executes nothing within T.
func (e *Engine) timedOut(now consensus.Time) []consensus.Action {
	if e.fresh {
		e.backoff++
	}
	return e.startViewChange(now, e.view+1)
}
