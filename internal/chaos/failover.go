package chaos

import (
	"fmt"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/types"
)

// FailoverReport is what RunFailoverSchedule measured at one live
// replica, the reference.
type FailoverReport struct {
	// ViewChanges is the most view changes any live replica completed.
	ViewChanges uint64
	// Timeout is the reference's view-change timeout when the primary
	// crashed.
	Timeout time.Duration
	// Round is the slowest propose-to-commit time the reference saw under
	// load, the rounds that drain the outage's backlog included.
	Round time.Duration
	// Gap is the time from the crash to the reference's next commit.
	Gap time.Duration
}

// RunFailoverSchedule crashes the primary of seven replicas under steady
// load, with no fixed view-change timeout: every replica takes it from
// the rounds it times. One transaction every 10 ms enters through the
// nodes in turn for three seconds, the primary crashes, and the load runs
// five seconds more; the invariants are checked at every step. It
// returns what the reference replica saw, then heals and restarts
// everything and checks that the cluster is live and convergent.
func RunFailoverSchedule(seed int64) (*FailoverReport, error) {
	rep := &FailoverReport{}
	c, err := newCluster(Options{Nodes: 7, Seed: seed}, 0)
	if err != nil {
		return nil, err
	}
	c.RunFor(50 * time.Millisecond)
	const tick, warmup, load = 10 * time.Millisecond, 3 * time.Second, 5 * time.Second
	ref := c.liveSubmitter()
	if ref == c.PrimaryIndex(c.engines[ref].Inner().View()) {
		ref++
	}
	var crashAt consensus.Time
	node := c.nodes[ref]
	node.OnCommit = func(now consensus.Time, b *types.Block) {
		rep.Round = max(rep.Round, node.App.CommitLatency(now, b))
		if crashAt > 0 && rep.Gap == 0 {
			rep.Gap = now - crashAt
		}
	}
	k := 0
	offer := func(d time.Duration) error {
		for end := c.Now() + d; c.Now() < end; {
			for i := 0; i < c.opts.Nodes; i++ {
				if to := (k + i) % c.opts.Nodes; !c.crashed[to] {
					c.Submit(to, []byte(fmt.Sprintf("failover-%d", k)))
					break
				}
			}
			k++
			c.RunFor(tick)
			if k%int(stepInterval/tick) == 0 {
				if err := c.CheckInvariants(); err != nil {
					return fmt.Errorf("t=%v: %w", c.Now(), err)
				}
			}
		}
		return nil
	}
	if err := offer(warmup); err != nil {
		return nil, err
	}
	rep.Timeout = c.engines[ref].Inner().Timeout()
	crashAt = c.Now()
	c.Crash(c.PrimaryIndex(c.engines[ref].Inner().View()))
	if err := offer(load); err != nil {
		return nil, err
	}
	node.OnCommit = nil
	for i, e := range c.engines {
		if !c.crashed[i] {
			rep.ViewChanges = max(rep.ViewChanges, e.Inner().CompletedViewChanges())
		}
	}
	return rep, c.FinalRecovery()
}
