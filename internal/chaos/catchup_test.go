package chaos_test

import (
	"fmt"
	"testing"
	"time"

	"gpbft/internal/chaos"
	"gpbft/internal/core"
)

// TestRestartPagesBehindIdleCommittee restarts a node more than one
// sync page (core.MaxSyncBlocks) behind a committee that has gone idle.
// Nothing the committee does afterwards would restart a pull — no
// commit, no era announce — so the pull the restart opens must keep
// paging until the peer has nothing newer, not stop after its first
// response. Snapshots are off: the whole gap is crossed block by block.
func TestRestartPagesBehindIdleCommittee(t *testing.T) {
	c, err := chaos.New(chaos.Options{Nodes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 3
	// commitOne commits one more transaction, one per block.
	k := 0
	commitOne := func() {
		t.Helper()
		want := c.Height(0) + 1
		c.Submit(k%victim, []byte(fmt.Sprintf("page-%d", k)))
		k++
		for deadline := c.Now() + 10*time.Second; c.Height(0) < want; {
			if c.Now() > deadline {
				t.Fatalf("commit %d stalled at height %d", k, c.Height(0))
			}
			c.RunFor(20 * time.Millisecond)
		}
	}
	for c.Height(0) < 5 {
		commitOne()
	}
	c.RunFor(time.Second)
	c.Crash(victim)
	crashedAt := c.Height(victim)
	for c.Height(0) < crashedAt+400 {
		commitOne()
	}
	if gap := c.Height(0) - crashedAt; gap <= core.MaxSyncBlocks {
		t.Fatalf("setup: gap %d fits one sync page", gap)
	}
	c.RunUntilIdleFor(5 * time.Second)

	if err := c.Restart(victim, false); err != nil {
		t.Fatal(err)
	}
	c.RunUntilIdleFor(60 * time.Second)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Height(victim), c.Height(0); got != want {
		t.Fatalf("restarted node at height %d, committee at %d (crashed at %d; stats %+v)",
			got, want, crashedAt, c.SyncStats(victim))
	}
}
