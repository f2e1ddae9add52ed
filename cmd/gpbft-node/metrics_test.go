package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/runtime"
	"gpbft/internal/transport"
	"gpbft/internal/types"
)

// fixedScrape is one node's snapshots with every value distinct, so a
// series rendered from the wrong field shows in the golden file. With
// gossip on it has peers in every connection state, lanes and admission;
// with it off, none of these.
func fixedScrape(gossip bool) scrape {
	s := scrape{
		transport: transport.Stats{
			FramesIn: 101, FramesOut: 102, WriteBatches: 103, BytesIn: 104, BytesOut: 105,
			Dropped: 106, Dials: 107, DialFailures: 108, Redials: 109, Accepted: 110,
			HandshakeFailures: 111, OpenConns: 112, ConnsPruned: 113,
			IngressRejected: 114, IngressThrottled: 115, RejectReplies: 116,
		},
		node: runtime.CounterSnapshot{
			Delivered: 201, Fired: 202, Submitted: 203, Rejected: 204, Committed: 205, LastHeight: 206,
			Pool: runtime.PoolStats{
				Pending: 301, Admitted: 302, RejectedFull: 303, RejectedDup: 304,
				Dropped: 305, Committed: 306, EvictedShed: 307,
			},
			Sync: runtime.SyncStats{
				Retries: 701, LagPulls: 702, VotesVerified: 703, VotesSurplus: 704,
				RequestsHeld: 705, RequestsRerelayed: 706,
				ProposalsHeld: 707, ProposalsHeldFired: 708, ProposalsParked: 709,
				FetchesSent: 710, FetchesAnswered: 711, BlocksSynced: 712,
				SnapshotsInstalled: 713, SnapshotsRejected: 714, SnapshotsServed: 715,
				Mode: runtime.SyncModeSnapshot,
			},
		},
		gossip:         gossip,
		forks:          601,
		evidence:       602,
		banned:         3,
		snapshots:      7,
		compactedBytes: 4096,
	}
	if !gossip {
		return s
	}
	for i, st := range []transport.PeerState{transport.PeerConnected, transport.PeerBackoff, transport.PeerConnecting, transport.PeerIdle} {
		s.transport.Peers = append(s.transport.Peers, transport.PeerStats{
			Addr: gcrypto.DeterministicKeyPair(i + 1).Address(), State: st, Inbound: i == 0, QueueLen: 10 + i,
		})
	}
	s.node.Pool.Lanes = [3]int{308, 309, 310}
	s.node.Admission = runtime.AdmissionStats{
		Accepted: 401, RejectedRate: 402, Shed: 403, Level: 2, Identities: 405, LatencyEWMA: 1500 * time.Microsecond,
	}
	s.node.Relay = consensus.RelayStats{
		ForwardedFrames: 501, ForwardedEntries: 502, Suppressed: 503, Dropped: 504, Delivered: 505,
		DupemapEntries: 506, DupemapGenerations: 507, Fanout: 5,
	}
	return s
}

// TestMetricsGolden pins the /metrics scrape byte for byte: every family,
// its type, its order, its labels and its value formatting, once with
// gossip off and once with it on.
func TestMetricsGolden(t *testing.T) {
	var sb strings.Builder
	for _, gossip := range []bool{false, true} {
		if gossip {
			sb.WriteString("-- gossip on --\n")
		} else {
			sb.WriteString("-- gossip off --\n")
		}
		writeMetrics(&sb, fixedScrape(gossip))
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// samples renders s and returns each sample's value by series name
// (labels included), failing on any sample without its TYPE header.
func samples(t *testing.T, s scrape) map[string]string {
	t.Helper()
	var sb strings.Builder
	writeMetrics(&sb, s)
	got, typed := map[string]string{}, map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typed[name] = kind
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		family, _, _ := strings.Cut(fields[0], "{")
		if typed[family] == "" {
			t.Fatalf("sample %q has no TYPE header", line)
		}
		got[fields[0]] = fields[1]
		got["# TYPE "+family] = typed[family]
	}
	return got
}

// TestWriteMetricsAdmission renders a live Admission's snapshot: one
// admitted transaction shows as one accepted, nothing rejected or shed.
func TestWriteMetricsAdmission(t *testing.T) {
	a := runtime.NewAdmission(runtime.AdmissionConfig{Rate: 10})
	tx := &types.Transaction{
		Type: types.TxNormal, Nonce: 1, Payload: []byte{1}, Fee: 1,
		Geo: types.GeoInfo{Location: geo.Point{Lng: 114.17, Lat: 22.30}, Timestamp: time.Unix(1, 0)},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(1))
	if err := a.Admit(0, tx); err != nil {
		t.Fatal(err)
	}
	var s scrape
	s.node.Admission = a.Stats()
	got := samples(t, s)
	for name, val := range map[string]string{
		"gpbft_admission_accepted_total":                      "1",
		`gpbft_admission_rejected_total{reason="rate-limit"}`: "0",
		`gpbft_admission_shed_total{reason="overload"}`:       "0",
		"gpbft_admission_level":                               "0",
		"gpbft_admission_identities":                          "1",
	} {
		if got[name] != val {
			t.Errorf("%s = %q, want %q", name, got[name], val)
		}
	}
}

// TestWriteMetricsSync maps each sync and snapshot series to its
// SyncStats field (or the directory's counts) and its metric type.
func TestWriteMetricsSync(t *testing.T) {
	var s scrape
	s.node.Sync = runtime.SyncStats{
		Mode: runtime.SyncModeSnapshot, BlocksSynced: 42,
		SnapshotsInstalled: 1, SnapshotsRejected: 3, SnapshotsServed: 5,
		Retries: 2, LagPulls: 4, VotesVerified: 60, VotesSurplus: 40,
		RequestsHeld: 9, RequestsRerelayed: 8,
		ProposalsHeld: 6, ProposalsHeldFired: 5, ProposalsParked: 11,
		FetchesSent: 12, FetchesAnswered: 13,
	}
	s.snapshots, s.compactedBytes = 7, 4096
	got := samples(t, s)
	for name, val := range map[string]string{
		"gpbft_snapshot_written_total":                  "7",
		"gpbft_snapshot_installed_total":                "1",
		"gpbft_snapshot_rejected_total":                 "3",
		"gpbft_snapshot_served_total":                   "5",
		"gpbft_sync_retries_total":                      "2",
		"gpbft_sync_lag_pulls_total":                    "4",
		"gpbft_sync_blocks_total":                       "42",
		"gpbft_votes_verified_total":                    "60",
		"gpbft_votes_dropped_surplus_total":             "40",
		"gpbft_requests_held_total":                     "9",
		"gpbft_requests_rerelayed_total":                "8",
		"gpbft_proposals_held_total":                    "6",
		"gpbft_proposals_held_expired_total":            "5",
		"gpbft_proposals_parked_total":                  "11",
		`gpbft_proposal_fetches_total{side="sent"}`:     "12",
		`gpbft_proposal_fetches_total{side="answered"}`: "13",
		"gpbft_sync_mode":                               "2",
		"gpbft_compacted_bytes":                         "4096",
	} {
		if got[name] != val {
			t.Errorf("%s = %q, want %q", name, got[name], val)
		}
		kind := "counter"
		if name == "gpbft_sync_mode" || name == "gpbft_compacted_bytes" {
			kind = "gauge"
		}
		family, _, _ := strings.Cut(name, "{")
		if got["# TYPE "+family] != kind {
			t.Errorf("%s has type %q, want %s", family, got["# TYPE "+family], kind)
		}
	}
}
