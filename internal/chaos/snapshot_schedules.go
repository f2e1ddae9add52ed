package chaos

import (
	"fmt"
	"path/filepath"
	"time"

	"gpbft/internal/byzantine"
	"gpbft/internal/runtime"
	"gpbft/internal/types"
)

// Snapshot fault schedules: the restart-at-scale proofs. Each drives a
// kill → grow-many-eras → rejoin arc and asserts HOW the revenant
// recovered, not just that it did — via the engine's own sync counters
// (blocks replayed, snapshots installed/rejected, final mode).

// SyncStats returns node i's engine sync counters.
func (c *Cluster) SyncStats(i int) runtime.SyncStats { return c.engines[i].SyncStats() }

// maxEra returns the highest era any live node has reached.
func (c *Cluster) maxEra() uint64 {
	var max uint64
	for i, e := range c.engines {
		if !c.crashed[i] && e.Era() > max {
			max = e.Era()
		}
	}
	return max
}

// gatewayReport keeps a crashed endorser's identity qualified: its
// device keeps beaconing signed location reports through a live peer
// (the IoT device's radio outlives its consensus process). Without
// this, a long outage would either expel the node or — at the
// committee minimum — stall era switches entirely, and the schedule
// would be testing the election layer instead of the sync layer.
func (c *Cluster) gatewayReport(device int) {
	gw := c.liveSubmitter()
	if c.crashed[gw] {
		return
	}
	c.nonces[device]++
	tx := &types.Transaction{
		Type:  types.TxLocationReport,
		Nonce: c.nonces[device],
		Geo: types.GeoInfo{
			Location:  c.positions[device],
			Timestamp: c.epoch.Add(c.net.Now()),
		},
	}
	tx.Sign(c.keys[device])
	_ = c.nodes[gw].Submit(c.net.Now(), tx)
}

// growEras drives traffic (payload transactions plus the location
// reports that keep every identity qualified) until the live cluster
// has completed n more forced era switches.
func (c *Cluster) growEras(n int) error {
	target := c.maxEra() + uint64(n)
	deadline := c.Now() + time.Duration(n+2)*3*c.genesis.Policy.EraPeriod
	for c.maxEra() < target {
		if c.Now() > deadline {
			return fmt.Errorf("chaos: era growth stalled at %d (want %d)", c.maxEra(), target)
		}
		for i := range c.nodes {
			if c.crashed[i] {
				c.gatewayReport(i)
				continue
			}
			c.SubmitReport(i)
			c.Submit(i, []byte(fmt.Sprintf("grow-%d-%d", c.Now(), i)))
		}
		c.RunFor(250 * time.Millisecond)
	}
	return nil
}

// snapshotScheduleSetup validates options, warms the cluster through
// two eras (so every node retains a snapshot), kills the victim, and
// grows the chain by `eras` eras without it. It returns the victim
// index and the heights before and after the outage.
func (c *Cluster) snapshotScheduleSetup(eras int) (victim int, hBefore, hGrown uint64, err error) {
	if !c.opts.Snapshots || !c.opts.EnableEraSwitch {
		return 0, 0, 0, fmt.Errorf("chaos: snapshot schedules need Snapshots and EnableEraSwitch")
	}
	victim = c.opts.Nodes - 1
	if err := c.growEras(2); err != nil {
		return 0, 0, 0, err
	}
	if err := c.CheckInvariants(); err != nil {
		return 0, 0, 0, fmt.Errorf("after warm-up: %w", err)
	}
	c.Crash(victim)
	hBefore = c.Height(0)
	if err := c.growEras(eras); err != nil {
		return 0, 0, 0, err
	}
	hGrown = c.Height(0)
	if hGrown-hBefore < uint64(eras) {
		return 0, 0, 0, fmt.Errorf("chaos: outage growth too small: %d blocks over %d eras", hGrown-hBefore, eras)
	}
	return victim, hBefore, hGrown, nil
}

// rejoinAndSettle restarts the victim and runs until quiescence, then
// re-checks the safety invariants and that the revenant converged to
// the cluster head.
func (c *Cluster) rejoinAndSettle(victim int) error {
	if err := c.Restart(victim, false); err != nil {
		return err
	}
	c.RunUntilIdleFor(60 * time.Second)
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("after rejoin: %w", err)
	}
	if c.Height(victim) < c.Height(0) {
		return fmt.Errorf("chaos: victim stuck at height %d, cluster at %d (stats %+v)",
			c.Height(victim), c.Height(0), c.SyncStats(victim))
	}
	return nil
}

// proveLiveness commits one more transaction everywhere.
func (c *Cluster) proveLiveness(tag string) error {
	before := c.MinHeight()
	c.Submit(c.liveSubmitter(), []byte(tag))
	c.RunUntilIdleFor(30 * time.Second)
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("after liveness probe: %w", err)
	}
	for i := range c.nodes {
		if c.Height(i) <= before {
			return fmt.Errorf("liveness: node %d stuck at height %d", i, c.Height(i))
		}
	}
	return nil
}

// RunSnapshotRejoinSchedule is the headline restart-at-scale proof:
// SIGKILL one node, grow the chain by `eras` forced eras (with
// compaction, so peers cannot serve the dead node's gap as blocks),
// restart it, and assert it recovered via snapshot-then-tail — a
// verified snapshot installed, sync mode "snapshot", and total blocks
// replayed (boot replay + tailed blocks) a small fraction of the
// outage growth, i.e. O(state + tail) rather than O(history).
func (c *Cluster) RunSnapshotRejoinSchedule(eras int) error {
	victim, hBefore, hGrown, err := c.snapshotScheduleSetup(eras)
	if err != nil {
		return err
	}
	replayedBefore := c.replayed[victim]
	if err := c.rejoinAndSettle(victim); err != nil {
		return err
	}
	st := c.SyncStats(victim)
	if st.SnapshotsInstalled < 1 {
		return fmt.Errorf("chaos: expected a snapshot install, stats %+v", st)
	}
	if st.Mode != runtime.SyncModeSnapshot {
		return fmt.Errorf("chaos: expected snapshot sync mode, got %v (stats %+v)", st.Mode, st)
	}
	replayed := st.BlocksSynced + (c.replayed[victim] - replayedBefore)
	grown := hGrown - hBefore
	if replayed*2 >= grown {
		return fmt.Errorf("chaos: replay not bounded by the tail: %d blocks replayed vs %d grown", replayed, grown)
	}
	return c.proveLiveness("rejoin-probe")
}

// RunCorruptSnapshotSchedule proves local corruption cannot install
// partial state: every snapshot in the victim's own store is bit-
// flipped before restart. Boot must skip them all (its compacted block
// log no longer connects to genesis, so it boots empty), then recover
// entirely from a peer snapshot that passes verification — converging
// with no fork and no partial state.
func (c *Cluster) RunCorruptSnapshotSchedule(eras int) error {
	victim, _, _, err := c.snapshotScheduleSetup(eras)
	if err != nil {
		return err
	}
	c.corruptSnapshots(victim)
	replayedBefore := c.replayed[victim]
	if err := c.rejoinAndSettle(victim); err != nil {
		return err
	}
	if got := c.replayed[victim] - replayedBefore; got != 0 {
		return fmt.Errorf("chaos: boot replayed %d blocks from a log below corrupt snapshots", got)
	}
	st := c.SyncStats(victim)
	if st.SnapshotsInstalled < 1 {
		return fmt.Errorf("chaos: expected remote snapshot recovery, stats %+v", st)
	}
	return c.proveLiveness("corrupt-local-probe")
}

// corruptSnapshots flips one byte in the middle of every snapshot file
// in node i's slot: disk damage that the CRC frame catches.
func (c *Cluster) corruptSnapshots(i int) {
	fsys, dir := c.slots[i], slotPath+".snap"
	names, _ := fsys.List(dir)
	for _, name := range names {
		path := filepath.Join(dir, name)
		data, _ := fsys.ReadFile(path)
		data[len(data)/2] ^= 0x40
		f, _ := fsys.Create(path)
		f.Write(data)
	}
}

// RunLyingPeerSchedule proves the fallback: every peer the victim can
// fetch a snapshot from serves corrupted bytes (Options.Faults makes
// them byzantine.FaultSnapshotLie). The victim must reject each lie on verification and
// fall back to full block replay — requiring Options.Compact to be
// off so peers still hold the blocks — ending converged with sync
// mode "replay" and zero snapshots installed.
func (c *Cluster) RunLyingPeerSchedule(eras int) error {
	if c.opts.Compact {
		return fmt.Errorf("chaos: lying-peer schedule needs Compact off so block replay stays possible")
	}
	lying := false
	for _, f := range c.opts.Faults {
		lying = lying || f == byzantine.FaultSnapshotLie
	}
	if !lying {
		return fmt.Errorf("chaos: lying-peer schedule needs a FaultSnapshotLie in Faults")
	}
	victim, _, _, err := c.snapshotScheduleSetup(eras)
	if err != nil {
		return err
	}
	if err := c.rejoinAndSettle(victim); err != nil {
		return err
	}
	st := c.SyncStats(victim)
	if st.SnapshotsInstalled != 0 {
		return fmt.Errorf("chaos: a lying peer's snapshot was installed, stats %+v", st)
	}
	if st.SnapshotsRejected < 1 {
		return fmt.Errorf("chaos: expected rejected snapshots, stats %+v", st)
	}
	if st.Mode != runtime.SyncModeReplay {
		return fmt.Errorf("chaos: expected replay fallback mode, got %v (stats %+v)", st.Mode, st)
	}
	if st.BlocksSynced == 0 {
		return fmt.Errorf("chaos: fallback replay synced no blocks, stats %+v", st)
	}
	return c.proveLiveness("lying-peer-probe")
}
