package main

import (
	"fmt"
	"time"

	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

// outcome is what one run (or several pooled simulator repetitions)
// measured, before it is turned into named metrics.
type outcome struct {
	setups []float64 // seconds, one per set-up

	attempted int
	failed    int
	committed int       // tracked commits the throughput counts
	latMs     []float64 // due -> first commit, per committed measured tx
	windowS   float64   // what committed is divided by for tx/s
	cpu       float64   // process CPU seconds over the measured window
	netKB     float64   // bytes put on the network over the window

	blocks   int
	blockTxs int
	gapMax   time.Duration
	// unavailMs is crash instant -> first commit of a tx due after it
	// (sim-c7-crash only, 0 elsewhere).
	unavailMs float64

	signedInline int
	violations   []string
	chains       [][]*types.Block // per node, for the checks and the layer pass
	genesis      *ledger.Genesis  // of the measured cluster, for the layer pass's replays

	live *liveCounts // traced runs only
}

func newOutcome() *outcome { return &outcome{live: &liveCounts{}} }

func (o *outcome) violate(format string, args ...any) {
	if len(o.violations) < 16 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// liveCounts are the raw deltas the traced run reads from the
// program's own counters around the measured window.
type liveCounts struct {
	usageBefore, usageAfter usage
	lag                     []time.Duration
	submitNs                []int64
	framesOut, bytesOut     int64
	dropped, redials        int64
	sigHits, sigMisses      uint64
	totals                  nodeTotals
	// simulator only
	events   int
	simMsgs  int64
	virtualS float64
	simWallS float64
}

func (t *tracker) warmCommitted() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.warmDone
}

// firstCommitDueAfter returns the earliest commit among transactions
// due at or after t (t itself when there is none).
func (t *tracker) firstCommitDueAfter(at time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := notCommitted
	for k, due := range t.due {
		if c := t.commit[k]; due >= at && c != notCommitted && (first == notCommitted || c < first) {
			first = c
		}
	}
	if first == notCommitted {
		return at
	}
	return first
}

// collect turns the tracker's clocks into the outcome's counts. In a
// closed loop the measured set is what was sent inside the window and
// throughput counts commits inside the window; in an open loop
// everything offered is measured.
func (t *tracker) collect(o *outcome, sent int, winStart, winEnd time.Duration, closed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var last time.Duration
	for k := 0; k < sent; k++ {
		due, at := t.due[k], t.commit[k]
		done := at != notCommitted && !t.refused[k]
		inWindow := !closed || (due >= winStart && due < winEnd)
		if inWindow {
			o.attempted++
			if !done {
				o.failed++
			}
		}
		if !done {
			continue
		}
		if closed {
			if at >= winStart && at < winEnd {
				o.committed++
				o.latMs = append(o.latMs, ms(at-due))
			}
			continue
		}
		o.committed++
		o.latMs = append(o.latMs, ms(at-due))
		if at > last {
			last = at
		}
	}
	if closed {
		o.windowS += (winEnd - winStart).Seconds()
	} else if last > winStart {
		o.windowS += (last - winStart).Seconds()
	}
	o.blocks += t.blocks
	o.blockTxs += t.blockTxs
	if t.gapMax > o.gapMax {
		o.gapMax = t.gapMax
	}
	if t.forks > 0 {
		o.violate("%d heights were committed with two different blocks", t.forks)
	}
	if t.dupCommits > 0 {
		o.violate("%d tracked transactions committed at a second height", t.dupCommits)
	}
}

// checkChains is the output check: identical block hash at every
// height up to the lowest head, every tracked transaction at most once
// on the longest chain, and no data transaction that was never offered.
func (o *outcome) checkChains(t *tracker) {
	if len(o.chains) == 0 {
		return
	}
	longest := o.chains[0]
	for i, ch := range o.chains {
		if len(ch) > len(longest) {
			longest = ch
		}
		for h := 0; h < len(ch) && h < len(o.chains[0]); h++ {
			if ch[h].Hash() != o.chains[0][h].Hash() {
				o.violate("node %d disagrees with node 0 at height %d", i, h)
				break
			}
		}
	}
	o.checkChain(t, longest)
}

func (o *outcome) checkChain(t *tracker, chain []*types.Block) {
	t.mu.Lock()
	defer t.mu.Unlock()
	times := make(map[int32]int, len(t.due))
	foreign := 0
	for _, b := range chain {
		for i := range b.Txs {
			k, ok := t.index[b.Txs[i].ID()]
			switch {
			case !ok:
				if b.Txs[i].Type == types.TxNormal {
					foreign++
				}
			case k >= 0:
				times[k]++
			}
		}
	}
	twice := 0
	for _, n := range times {
		if n > 1 {
			twice++
		}
	}
	if twice > 0 {
		o.violate("%d tracked transactions are on the chain more than once", twice)
	}
	if foreign > 0 {
		o.violate("%d committed data transactions were never offered", foreign)
	}
}
