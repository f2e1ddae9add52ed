package chaos

import "testing"

func gossipOpts(seed int64) Options {
	return Options{
		Nodes:  7,
		Seed:   seed,
		Gossip: true,
	}
}

// The headline gossip chaos property: a victim node loses direct links
// to half the committee — more than f links, fatal for point-to-point
// dissemination — yet keeps committing because relays route its
// traffic around the cut. The run stays within the f·n forwarding
// envelope (asserted inside the schedule), fork-free, and recovers.
func TestGossipPartitionSchedule(t *testing.T) {
	c, err := New(gossipOpts(9001))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunGossipSchedule(8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gossip report: %+v", rep)
	if rep.VictimHeightAtHeal <= rep.VictimHeightAtCut {
		t.Fatalf("victim made no progress across the partition window (%d -> %d): epidemic routing failed",
			rep.VictimHeightAtCut, rep.VictimHeightAtHeal)
	}
	if rep.Suppressed == 0 {
		t.Fatalf("epidemic redundancy produced no dupemap hits: %+v", rep)
	}
}

// An explicit small fanout still satisfies the complexity bound and
// the partition property — the knob is honored, not just the auto
// setting.
func TestGossipFixedFanoutSchedule(t *testing.T) {
	opts := gossipOpts(9002)
	opts.GossipFanout = 3
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunGossipSchedule(6)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("gossip report: %+v", rep)
	if rep.Fanout != 3 {
		t.Fatalf("fanout override ignored: got %d, want 3", rep.Fanout)
	}
}

// The schedule refuses to run without gossip: its assertions are about
// the relay and would vacuously pass on the direct path.
func TestGossipScheduleRequiresGossip(t *testing.T) {
	c, err := New(Options{Nodes: 7, Seed: 9003})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunGossipSchedule(4); err == nil {
		t.Fatal("gossip schedule must refuse to run without Options.Gossip")
	}
}

// Gossip under the generic random fault soup: crashes, restarts,
// partitions and background drops on top of relay dissemination. A
// restarted node comes back with a fresh dupemap and must absorb
// re-delivered duplicates through the engine's idempotent vote tables
// without forking.
func TestGossipRandomSchedule(t *testing.T) {
	opts := gossipOpts(9004)
	opts.DropRate = 0.01
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunRandomSchedule(40); err != nil {
		t.Fatal(err)
	}
	if c.Checker().VoteCount() == 0 {
		t.Fatal("checker saw no votes — relay unwrapping in the trace tap is broken")
	}
}
