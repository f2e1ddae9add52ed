package runtime

import (
	"fmt"
	"io"
)

// SyncMetrics bundles one node's snapshot and catch-up observability
// for a Prometheus text endpoint: the engine's sync counters plus the
// two node-level series the engine cannot see (snapshots this node
// produced, and bytes reclaimed from its durable logs by compaction).
type SyncMetrics struct {
	Stats SyncStats
	// SnapshotsWritten counts era snapshots this node produced and
	// published to its own store.
	SnapshotsWritten uint64
	// CompactedBytes is the cumulative size of durable log content
	// dropped by compaction.
	CompactedBytes uint64
}

// WritePrometheus emits the sync series in Prometheus text format
// under the given namespace. gpbft_sync_mode encodes how the most
// recent deep catch-up resolved: 0 none, 1 full block replay,
// 2 snapshot-then-tail.
func (m SyncMetrics) WritePrometheus(w io.Writer, ns string) {
	counter := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s_%s counter\n%s_%s %d\n", ns, name, ns, name, v)
	}
	gauge := func(name string, v uint64) {
		fmt.Fprintf(w, "# TYPE %s_%s gauge\n%s_%s %d\n", ns, name, ns, name, v)
	}
	counter("snapshot_written_total", m.SnapshotsWritten)
	counter("snapshot_installed_total", m.Stats.SnapshotsInstalled)
	counter("snapshot_rejected_total", m.Stats.SnapshotsRejected)
	counter("snapshot_served_total", m.Stats.SnapshotsServed)
	counter("sync_retries_total", m.Stats.Retries)
	counter("sync_lag_pulls_total", m.Stats.LagPulls)
	counter("sync_blocks_total", m.Stats.BlocksSynced)
	counter("votes_verified_total", m.Stats.VotesVerified)
	counter("votes_dropped_surplus_total", m.Stats.VotesSurplus)
	counter("requests_held_total", m.Stats.RequestsHeld)
	counter("requests_rerelayed_total", m.Stats.RequestsRerelayed)
	counter("proposals_held_total", m.Stats.ProposalsHeld)
	counter("proposals_held_expired_total", m.Stats.ProposalsHeldFired)
	gauge("sync_mode", uint64(m.Stats.Mode))
	gauge("compacted_bytes", m.CompactedBytes)
}
