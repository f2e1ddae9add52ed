package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestKillRestartRecovery is the end-to-end crash-safety check over
// real TCP: it SIGKILLs a durable node mid-era while the rest of the
// committee keeps committing, restarts it against the same -data
// files, and requires the revenant to recover its persisted height,
// catch up to the live head, and take part in committing new blocks —
// all inside the same era.
func TestKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real node processes")
	}

	bin := filepath.Join(t.TempDir(), "gpbft-node")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	dataDir := t.TempDir()
	const (
		n           = 4
		basePort    = 39640
		metricsPort = 39740
	)

	cmds := make([]*exec.Cmd, n)
	startNode := func(i int) {
		logf, err := os.OpenFile(filepath.Join(dataDir, fmt.Sprintf("node%d.stderr", i)),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin,
			"-index", strconv.Itoa(i),
			"-committee", strconv.Itoa(n),
			"-base-port", strconv.Itoa(basePort),
			"-era", "120s", // the whole test must fit inside one era
			"-report", "150ms", // location reports drive block production
			"-batch", "4",
			"-quiet",
			"-data", filepath.Join(dataDir, fmt.Sprintf("node%d.blocks", i)),
			"-fsync",
			"-metrics-addr", fmt.Sprintf("127.0.0.1:%d", metricsPort+i),
			// Overload armor on: committee identities are exempt, so the
			// 150ms report cadence must keep driving block production
			// while the QoS pool and admission metrics are live.
			"-rate-limit", "50",
			"-lane-weights", "8,4,1",
			"-shed-thresholds", "0.5,0.75,0.9",
			"-ingress-bytes", "1048576",
		)
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			t.Fatalf("start node %d: %v", i, err)
		}
		logf.Close()
		cmds[i] = cmd
	}
	t.Cleanup(func() {
		for i, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
			if t.Failed() {
				if out, err := os.ReadFile(filepath.Join(dataDir, fmt.Sprintf("node%d.stderr", i))); err == nil {
					t.Logf("node %d log:\n%s", i, tail(string(out), 30))
				}
			}
		}
	})
	for i := 0; i < n; i++ {
		startNode(i)
	}

	// The committee produces blocks from its own location reports.
	h0 := waitHeight(t, metricsPort+0, 3, 60*time.Second, "initial block production on node 0")

	// The overload-armor observability surface must be in the scrape:
	// admission counters by reason plus per-lane mempool depth gauges;
	// likewise the vote fast path's account and the lag-sync pull count.
	assertMetricsSeries(t, metricsPort+0,
		"gpbft_votes_verified_total",
		"gpbft_votes_dropped_surplus_total",
		"gpbft_sync_lag_pulls_total",
		"gpbft_admission_accepted_total",
		`gpbft_admission_rejected_total{reason="rate-limit"}`,
		`gpbft_admission_shed_total{reason="overload"}`,
		"gpbft_admission_level",
		"gpbft_admission_identities",
		`gpbft_mempool_lane_depth{lane="control"}`,
		`gpbft_mempool_lane_depth{lane="normal"}`,
		`gpbft_mempool_lane_depth{lane="bulk"}`,
		"gpbft_mempool_evicted_shed_total",
	)

	// SIGKILL node 0 mid-era: no shutdown hooks, no flushes beyond
	// what the persist-before-send discipline already forced.
	if err := cmds[0].Process.Kill(); err != nil {
		t.Fatalf("kill node 0: %v", err)
	}
	_ = cmds[0].Wait()
	cmds[0] = nil

	// The surviving 3-of-4 quorum must keep committing without it.
	peerH := waitHeight(t, metricsPort+1, h0+2, 60*time.Second, "progress without the killed node")

	// Restart against the same data files: the node replays its block
	// log, reloads its vote WAL, syncs the blocks it missed, and then
	// participates in committing brand-new ones.
	startNode(0)
	waitHeight(t, metricsPort+0, peerH, 90*time.Second, "killed node recovering to the live head")
	liveH := waitHeight(t, metricsPort+1, peerH+1, 60*time.Second, "cluster committing after the restart")
	waitHeight(t, metricsPort+0, liveH, 60*time.Second, "restarted node following new commits")
}

// waitHeight polls a node's metrics endpoint until gpbft_node_height
// reaches min, failing the test at the deadline.
func waitHeight(t *testing.T, port int, min uint64, timeout time.Duration, what string) uint64 {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last uint64
	var lastErr error
	for time.Now().Before(deadline) {
		h, err := scrapeHeight(port)
		lastErr = err
		if err == nil {
			last = h
			if h >= min {
				return h
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s: height %d < %d (last scrape error: %v)", what, last, min, lastErr)
	return 0
}

// assertMetricsSeries scrapes a node's metrics endpoint once and fails
// on any series (name or name{labels}) missing from the exposition.
func assertMetricsSeries(t *testing.T, port int, series ...string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", port))
	if err != nil {
		t.Fatalf("scrape metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	for _, s := range series {
		if !strings.Contains(string(body), s+" ") {
			t.Errorf("metrics scrape is missing series %s", s)
		}
	}
}

func scrapeHeight(port int) (uint64, error) {
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", port))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "gpbft_node_height "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("gpbft_node_height not in scrape")
}

func tail(s string, lines int) string {
	all := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}
