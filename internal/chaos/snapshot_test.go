package chaos_test

import (
	"testing"
	"time"

	"gpbft/internal/byzantine"
	"gpbft/internal/chaos"
)

// snapshotOptions is the shared base: 4 nodes, fast eras so a ten-era
// outage is a short virtual-time run, a low fast-sync threshold so the
// rejoin gap qualifies, and snapshots retained two-deep.
func snapshotOptions(seed int64) chaos.Options {
	return chaos.Options{
		Nodes:             4,
		Seed:              seed,
		EnableEraSwitch:   true,
		Snapshots:         true,
		FastSyncThreshold: 8,
		EraPeriod:         2 * time.Second,
	}
}

// TestSnapshotRejoinSchedule is the restart-at-scale proof: a node is
// killed, the survivors grow ten more eras with compaction truncating
// their block logs, and the revenant must come back via a verified
// snapshot plus a short tail — bounded replay, sync mode "snapshot",
// no fork, and the cluster commits again afterwards.
func TestSnapshotRejoinSchedule(t *testing.T) {
	opts := snapshotOptions(101)
	opts.Compact = true
	c, err := chaos.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(50 * time.Millisecond)
	if err := c.RunSnapshotRejoinSchedule(10); err != nil {
		t.Fatalf("snapshot rejoin (seed 101): %v", err)
	}
}

// TestCorruptSnapshotSchedule bit-flips every snapshot in the victim's
// own store before restart: boot must skip them all without applying a
// byte, then recover from a peer snapshot that verifies.
func TestCorruptSnapshotSchedule(t *testing.T) {
	opts := snapshotOptions(103)
	opts.Compact = true
	c, err := chaos.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(50 * time.Millisecond)
	if err := c.RunCorruptSnapshotSchedule(10); err != nil {
		t.Fatalf("corrupt local snapshots (seed 103): %v", err)
	}
}

// TestLyingPeerSchedule makes every peer the victim could fetch from
// serve corrupted snapshot bytes. The victim must reject each one on
// verification and fall back to full block replay — ending converged
// in replay mode with zero snapshots installed.
func TestLyingPeerSchedule(t *testing.T) {
	opts := snapshotOptions(107)
	opts.Faults = map[int]byzantine.Fault{0: byzantine.FaultSnapshotLie, 1: byzantine.FaultSnapshotLie, 2: byzantine.FaultSnapshotLie}
	c, err := chaos.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(50 * time.Millisecond)
	if err := c.RunLyingPeerSchedule(10); err != nil {
		t.Fatalf("lying peers (seed 107): %v", err)
	}
}
