package runtime

import (
	"strings"
	"testing"
)

func TestSyncMetricsWritePrometheus(t *testing.T) {
	m := SyncMetrics{
		Stats: SyncStats{
			Mode:               SyncModeSnapshot,
			BlocksSynced:       42,
			SnapshotsInstalled: 1,
			SnapshotsRejected:  3,
			SnapshotsServed:    5,
			Retries:            2,
			LagPulls:           4,
			VotesVerified:      60,
			VotesSurplus:       40,
			RequestsHeld:       9,
			RequestsRerelayed:  8,
			ProposalsHeld:      6,
			ProposalsHeldFired: 5,
		},
		SnapshotsWritten: 7,
		CompactedBytes:   4096,
	}
	var sb strings.Builder
	m.WritePrometheus(&sb, "gpbft")
	out := sb.String()

	want := map[string]string{
		"gpbft_snapshot_written_total":       "7",
		"gpbft_snapshot_installed_total":     "1",
		"gpbft_snapshot_rejected_total":      "3",
		"gpbft_snapshot_served_total":        "5",
		"gpbft_sync_retries_total":           "2",
		"gpbft_sync_lag_pulls_total":         "4",
		"gpbft_sync_blocks_total":            "42",
		"gpbft_votes_verified_total":         "60",
		"gpbft_votes_dropped_surplus_total":  "40",
		"gpbft_requests_held_total":          "9",
		"gpbft_requests_rerelayed_total":     "8",
		"gpbft_proposals_held_total":         "6",
		"gpbft_proposals_held_expired_total": "5",
		"gpbft_sync_mode":                    "2",
		"gpbft_compacted_bytes":              "4096",
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	got := map[string]string{}
	for _, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		got[fields[0]] = fields[1]
	}
	for name, val := range want {
		if got[name] != val {
			t.Errorf("%s = %q, want %q", name, got[name], val)
		}
		// Every sample needs its TYPE header for scrapers.
		kind := "counter"
		if name == "gpbft_sync_mode" || name == "gpbft_compacted_bytes" {
			kind = "gauge"
		}
		if !strings.Contains(out, "# TYPE "+name+" "+kind) {
			t.Errorf("missing TYPE %s header for %s", kind, name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d samples, want %d: %v", len(got), len(want), got)
	}
}
