package chaos_test

import (
	"runtime"
	"testing"
	"time"

	"gpbft/internal/chaos"
)

// TestRandomScheduleWithParallelVerification re-runs a seeded
// crash/restart/partition schedule with a multi-worker batch verifier.
// The point is regression coverage for the throughput engine —
// concurrency in the verification layer must not change what the
// safety checkers see. Any fork or double-sign under this schedule
// fails the run with the seed in the message.
func TestRandomScheduleWithParallelVerification(t *testing.T) {
	// Force the parallel path on even on a single-core runner, and
	// restore GOMAXPROCS on exit so sibling tests are unaffected.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	c, err := chaos.New(chaos.Options{Nodes: 7, Seed: 1337, DropRate: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(50 * time.Millisecond)
	if err := c.RunRandomSchedule(40); err != nil {
		t.Fatalf("seed 1337 (parallel verification on): %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("seed 1337: safety invariant violated with parallel verification: %v", err)
	}
	if v := c.Checker().Violations(); len(v) > 0 {
		t.Fatalf("seed 1337: double-sign detected with parallel verification: %v", v)
	}
	if c.Checker().VoteCount() == 0 {
		t.Fatal("seed 1337: checker observed no votes — harness is not watching the trace")
	}
}

// TestPipelinedScheduleSurvivesMidWindowFaults runs the scripted
// pipelining schedule: a deep transaction burst keeps several sequence
// numbers in flight, then a crash and a partition land mid-window. The
// harness invariants — no fork, no durable-log gap (which is what a
// skipped or doubly-executed slot would leave), no committed-height
// regression, no double-sign — must hold at every checkpoint of the
// schedule, and the cluster must heal and commit again afterwards.
func TestPipelinedScheduleSurvivesMidWindowFaults(t *testing.T) {
	for _, seed := range []int64{5, 91} {
		c, err := chaos.New(chaos.Options{Nodes: 7, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(50 * time.Millisecond)
		if err := c.RunPipelinedSchedule(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.Checker().VoteCount() == 0 {
			t.Fatalf("seed %d: checker observed no votes", seed)
		}
	}
}
