package main

import (
	"fmt"
	"io"

	"gpbft/internal/runtime"
	"gpbft/internal/transport"
)

// scrape is what one /metrics response shows, each part a snapshot read
// once and safely off the node's event loop.
type scrape struct {
	transport transport.Stats
	node      runtime.CounterSnapshot
	gossip    bool // the node runs a relay: its series are shown
	// The chain's accountability counts, and the durable directory's
	// snapshot and compaction counts (store.Dir.Counts).
	forks, evidence           uint64
	banned                    int
	snapshots, compactedBytes uint64
}

// writeMetrics renders s in Prometheus text format. It is the node's one
// writer of that format; testdata/metrics.golden pins its output.
func writeMetrics(w io.Writer, s scrape) {
	family := func(name, kind string) { fmt.Fprintf(w, "# TYPE gpbft_%s %s\n", name, kind) }
	sample := func(name, labels string, v any) { fmt.Fprintf(w, "gpbft_%s%s %v\n", name, labels, v) }
	counter := func(name string, v any) { family(name, "counter"); sample(name, "", v) }
	gauge := func(name string, v any) { family(name, "gauge"); sample(name, "", v) }

	t := s.transport
	counter("transport_frames_in_total", t.FramesIn)
	counter("transport_frames_out_total", t.FramesOut)
	counter("transport_write_batches_total", t.WriteBatches)
	counter("transport_bytes_in_total", t.BytesIn)
	counter("transport_bytes_out_total", t.BytesOut)
	counter("transport_dropped_total", t.Dropped)
	// The same counter under its canonical name: frames dropped instead
	// of blocking the shared broadcast path (full queue or dead write).
	counter("transport_dropped_frames_total", t.Dropped)
	counter("transport_ingress_rejected_total", t.IngressRejected)
	counter("transport_ingress_throttled_total", t.IngressThrottled)
	counter("transport_reject_replies_total", t.RejectReplies)
	counter("transport_dials_total", t.Dials)
	counter("transport_dial_failures_total", t.DialFailures)
	counter("transport_redials_total", t.Redials)
	counter("transport_accepted_total", t.Accepted)
	counter("transport_handshake_failures_total", t.HandshakeFailures)
	counter("transport_conns_pruned_total", t.ConnsPruned)
	gauge("transport_open_conns", t.OpenConns)
	if len(t.Peers) > 0 {
		family("transport_peer_connected", "gauge")
		for _, p := range t.Peers {
			connected := 0
			if p.State == transport.PeerConnected {
				connected = 1
			}
			sample("transport_peer_connected", fmt.Sprintf("{peer=%q,state=%q,inbound=\"%t\"}", p.Addr.Short(), p.State, p.Inbound), connected)
		}
		family("transport_peer_queue_len", "gauge")
		for _, p := range t.Peers {
			sample("transport_peer_queue_len", fmt.Sprintf("{peer=%q}", p.Addr.Short()), p.QueueLen)
		}
	}
	c := s.node
	counter("node_envelopes_delivered_total", c.Delivered)
	counter("node_timers_fired_total", c.Fired)
	counter("node_txs_submitted_total", c.Submitted)
	counter("node_txs_rejected_total", c.Rejected)
	counter("node_blocks_committed_total", c.Committed)
	gauge("node_height", c.LastHeight)
	counter("node_forks_total", s.forks)
	counter("node_evidence_total", s.evidence)
	gauge("node_banned", s.banned)
	p := c.Pool
	gauge("mempool_pending", p.Pending)
	counter("mempool_admitted_total", p.Admitted)
	counter("mempool_rejected_full_total", p.RejectedFull)
	counter("mempool_rejected_dup_total", p.RejectedDup)
	counter("mempool_dropped_total", p.Dropped)
	counter("mempool_committed_total", p.Committed)
	counter("mempool_evicted_shed_total", p.EvictedShed)
	family("mempool_lane_depth", "gauge")
	for l, depth := range p.Lanes {
		sample("mempool_lane_depth", fmt.Sprintf("{lane=%q}", runtime.Lane(l)), depth)
	}
	if s.gossip {
		r := c.Relay
		counter("relay_forwarded_total", r.ForwardedFrames)
		counter("relay_forwarded_entries_total", r.ForwardedEntries)
		counter("relay_suppressed_total", r.Suppressed)
		counter("relay_dropped_total", r.Dropped)
		counter("relay_delivered_total", r.Delivered)
		gauge("relay_dupemap_entries", r.DupemapEntries)
		gauge("relay_dupemap_generations", r.DupemapGenerations)
		gauge("relay_fanout", r.Fanout)
	}
	a := c.Admission
	counter("admission_accepted_total", a.Accepted)
	family("admission_rejected_total", "counter")
	sample("admission_rejected_total", `{reason="rate-limit"}`, a.RejectedRate)
	family("admission_shed_total", "counter")
	sample("admission_shed_total", `{reason="overload"}`, a.Shed)
	gauge("admission_level", a.Level)
	gauge("admission_identities", a.Identities)
	gauge("admission_latency_ewma_seconds", a.LatencyEWMA.Seconds())
	y := c.Sync
	counter("snapshot_written_total", s.snapshots)
	counter("snapshot_installed_total", y.SnapshotsInstalled)
	counter("snapshot_rejected_total", y.SnapshotsRejected)
	counter("snapshot_served_total", y.SnapshotsServed)
	counter("sync_retries_total", y.Retries)
	counter("sync_lag_pulls_total", y.LagPulls)
	counter("sync_blocks_total", y.BlocksSynced)
	counter("votes_verified_total", y.VotesVerified)
	counter("votes_dropped_surplus_total", y.VotesSurplus)
	counter("requests_held_total", y.RequestsHeld)
	counter("requests_rerelayed_total", y.RequestsRerelayed)
	counter("proposals_held_total", y.ProposalsHeld)
	counter("proposals_held_expired_total", y.ProposalsHeldFired)
	counter("proposals_parked_total", y.ProposalsParked)
	family("proposal_fetches_total", "counter")
	sample("proposal_fetches_total", `{side="sent"}`, y.FetchesSent)
	sample("proposal_fetches_total", `{side="answered"}`, y.FetchesAnswered)
	// How the most recent deep catch-up resolved: 0 none, 1 full block
	// replay, 2 snapshot-then-tail.
	gauge("sync_mode", uint8(y.Mode))
	gauge("compacted_bytes", s.compactedBytes)
}
