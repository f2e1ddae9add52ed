package chaos_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gpbft/internal/chaos"
	"gpbft/internal/runtime"
)

// TestRandomSchedules runs seeded random crash/restart/partition/heal
// schedules against clusters of several sizes. Every step re-checks
// the safety invariants; after the fault phase the cluster must heal,
// converge and commit again. A failure message always names the seed
// so the exact run can be replayed.
func TestRandomSchedules(t *testing.T) {
	cases := []struct {
		nodes int
		seed  int64
		drop  float64
	}{
		{nodes: 4, seed: 1, drop: 0},
		{nodes: 7, seed: 7, drop: 0.01},
		{nodes: 16, seed: 42, drop: 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n=%d seed=%d", tc.nodes, tc.seed), func(t *testing.T) {
			c, err := chaos.New(chaos.Options{Nodes: tc.nodes, Seed: tc.seed, DropRate: tc.drop})
			if err != nil {
				t.Fatal(err)
			}
			c.RunFor(50 * time.Millisecond)
			if err := c.RunRandomSchedule(40); err != nil {
				t.Fatalf("seed %d (nodes=%d, drop=%v): %v", tc.seed, tc.nodes, tc.drop, err)
			}
			if c.Checker().VoteCount() == 0 {
				t.Fatalf("seed %d: checker observed no votes — harness is not watching the trace", tc.seed)
			}
		})
	}
}

// TestRandomScheduleWithEraSwitches layers forced era switches under
// the fault schedule: restarts now cross era boundaries, exercising
// WAL rotation and era rejoin.
func TestRandomScheduleWithEraSwitches(t *testing.T) {
	c, err := chaos.New(chaos.Options{Nodes: 5, Seed: 23, EnableEraSwitch: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(50 * time.Millisecond)
	if err := c.RunRandomSchedule(25); err != nil {
		t.Fatalf("seed 23 (era switches on): %v", err)
	}
}

// midInstanceCrash drives the scripted schedule both regression-guard
// tests share: the view-0 primary proposes, is killed before the
// round completes, and comes back while the surviving quorum commits
// its proposal. It returns the cluster and the primary's index with
// the primary already restarted (amnesia or durable, per the flag)
// and a conflicting transaction submitted through it.
func midInstanceCrash(t *testing.T, amnesia bool) (*chaos.Cluster, int) {
	t.Helper()
	c, err := chaos.New(chaos.Options{Nodes: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(50 * time.Millisecond)
	p := c.PrimaryIndex(0)
	if p < 0 {
		t.Fatal("no primary resolved for view 0")
	}

	// The primary proposes block 1 and dies with the pre-prepare on
	// the wire: its vote is out in the world, its memory is gone.
	c.Submit(p, []byte("payload-a"))
	c.Crash(p)
	// The surviving 3-of-4 quorum prepares and commits the proposal.
	c.RunFor(500 * time.Millisecond)
	if h := c.Height((p + 1) % 4); h != 1 {
		t.Fatalf("setup: surviving quorum at height %d, want 1", h)
	}

	// The primary reboots mid-instance and receives a different
	// transaction for the same slot it already proposed in.
	if err := c.Restart(p, amnesia); err != nil {
		t.Fatal(err)
	}
	c.Submit(p, []byte("payload-b"))
	c.RunUntilIdleFor(10 * time.Second)
	return c, p
}

// TestCrashedPrimaryWithWALStaysSafe: with the consensus WAL, the
// restarted primary recovers its sent-vote ledger, refuses to propose
// a second block for (view 0, seq 1), catches up over block sync, and
// proposes the new transaction at the next height instead. No
// equivocation appears in the trace and the chain keeps growing.
func TestCrashedPrimaryWithWALStaysSafe(t *testing.T) {
	c, _ := midInstanceCrash(t, false)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("WAL-backed restart violated safety: %v", err)
	}
	if v := c.Checker().Violations(); len(v) > 0 {
		t.Fatalf("WAL-backed restart double-signed: %v", v)
	}
	if h := c.MinHeight(); h < 2 {
		t.Fatalf("cluster stuck at height %d: recovered primary never re-proposed (liveness lost)", h)
	}
}

// TestAmnesiaPrimaryWithoutWALDoubleSigns is the regression guard for
// the whole WAL mechanism: the identical schedule with the vote log
// wiped at restart makes the primary re-propose a DIFFERENT block for
// the slot it already proposed in — a detectable double-sign. If this
// test ever starts passing the invariant check, the chaos harness has
// lost the ability to see the fault the WAL exists to prevent.
func TestAmnesiaPrimaryWithoutWALDoubleSigns(t *testing.T) {
	c, p := midInstanceCrash(t, true)
	v := c.Checker().Violations()
	if len(v) == 0 {
		t.Fatalf("amnesia restart of node %d produced no double-sign: either the harness missed it or the engine is durable without its WAL", p)
	}
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("invariant check passed despite equivocation in the trace")
	}
}

// replayOutcome is what a seeded run ends with: every node's height and
// sync counters, and the number of votes the checker saw.
type replayOutcome struct {
	heights []uint64
	sync    []runtime.SyncStats
	votes   int
}

func outcomeOf(c *chaos.Cluster, nodes int) replayOutcome {
	o := replayOutcome{votes: c.Checker().VoteCount()}
	for i := 0; i < nodes; i++ {
		o.heights = append(o.heights, c.Height(i))
		o.sync = append(o.sync, c.SyncStats(i))
	}
	return o
}

// TestAmnesiaScheduleReplaysFromItsSeed: the amnesia schedule has one
// outcome. A view change's prepared proof and a raced-ahead commit
// certificate take their votes in committee order, so no map order
// decides the bytes the committee exchanges.
func TestAmnesiaScheduleReplaysFromItsSeed(t *testing.T) {
	c, _ := midInstanceCrash(t, true)
	want := outcomeOf(c, 4)
	for run := 1; run < 20; run++ {
		c, _ := midInstanceCrash(t, true)
		if got := outcomeOf(c, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d ended %+v, run 0 %+v", run, got, want)
		}
	}
}

// TestRandomScheduleReplaysFromItsSeed: a random schedule (the gossip
// schedule's setup) run twice from one seed ends the same way.
func TestRandomScheduleReplaysFromItsSeed(t *testing.T) {
	opts := chaos.Options{Nodes: 7, Seed: 9004, Gossip: true, DropRate: 0.01}
	var outs []replayOutcome
	for run := 0; run < 2; run++ {
		c, err := chaos.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunRandomSchedule(40); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, outcomeOf(c, opts.Nodes))
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Fatalf("seed %d ended %+v, then %+v", opts.Seed, outs[0], outs[1])
	}
}
