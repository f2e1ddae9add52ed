// Command gpbft-node runs one full node over real TCP. A committee of
// nodes started with the same -committee value and consecutive -index
// values (sharing -base-port) forms a blockchain; clients submit
// transactions with cmd/gpbft-client.
//
// A 4-node G-PBFT committee on one machine:
//
//	gpbft-node -index 0 &
//	gpbft-node -index 1 &
//	gpbft-node -index 2 &
//	gpbft-node -index 3 &
//	gpbft-client -to 127.0.0.1:9000 -count 5
//
// Node identities are deterministic (derived from -index) so that all
// participants compute the same genesis block without a coordination
// step; pass -chain-id to isolate deployments.
//
// With -data, the node is crash-safe: it keeps one durable directory
// (store.Dir). Every consensus vote is persisted to <data>.wal before it
// is sent, and every committed block to the block log at <data> before
// it is acknowledged, so a killed-and-restarted node recovers its chain,
// rejoins its era, and never contradicts a vote it already sent. A block
// or vote that cannot be persisted fail-stops the node: it sends nothing
// more and exits non-zero, and a restart recovers it by WAL and block
// sync. A restart that cannot replay a compacted block log (its snapshot
// refused, or -retain-eras 0) refuses to start and leaves the log as is.
//
// With -retain-eras N (the default), every era boundary additionally
// writes a signed snapshot of the full chain state to <data>.snap and
// compacts the block log below the oldest of the N retained snapshots,
// so disk stays proportional to recent history. A restart boots from
// the newest verifiable snapshot plus the log tail, and a node that
// fell far behind installs a quorum-verified peer snapshot instead of
// replaying the whole chain (see -fast-sync-threshold).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpbft/internal/assemble"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/transport"
	"gpbft/internal/types"
)

// main stays a thin wrapper around run so that every exit path —
// including SIGINT/SIGTERM and configuration errors — unwinds run's
// defers and closes the durable logs. os.Exit anywhere inside the
// setup would skip the fsync-on-close of the block log and vote WAL.
func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "gpbft-node: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		index     = flag.Int("index", 0, "node index (derives identity, position and port)")
		committee = flag.Int("committee", 4, "genesis committee size")
		nodes     = flag.Int("nodes", 0, "total nodes incl. candidates (default = committee)")
		basePort  = flag.Int("base-port", 9000, "peer i listens on base-port+i")
		host      = flag.String("host", "127.0.0.1", "host peers are reachable at")
		listen    = flag.String("listen", "", "listen address (default host:base-port+index)")
		protocol  = flag.String("protocol", "gpbft", "pbft or gpbft")
		chainID   = flag.String("chain-id", "gpbft-tcp", "chain identifier")
		eraPeriod = flag.Duration("era", 30*time.Second, "era switch period T (gpbft)")
		swPeriod  = flag.Duration("switch", 250*time.Millisecond, "switch pause")
		report    = flag.Duration("report", 5*time.Second, "own location-report period (gpbft; 0 = off)")
		batch     = flag.Int("batch", 32, "target transactions per block (blocks grow up to 4x under backlog)")
		inflight  = flag.Int("max-inflight", 0, "consensus pipelining depth (0 = engine default, 1 = one-slot serial)")
		poolCap   = flag.Int("mempool-cap", 0, "mempool capacity in transactions (0 = default)")
		rateLimit = flag.Float64("rate-limit", 0, "overload armor: per-identity admission rate in tx/s; enables QoS mempool lanes and load shedding (0 = off, exact pre-armor behaviour)")
		rateBurst = flag.Float64("rate-burst", 0, "admission token-bucket burst in transactions (0 = 2x rate, min 8)")
		laneWts   = flag.String("lane-weights", "", "QoS scheduler weights as control,normal,bulk (default 8,4,1)")
		shedThr   = flag.String("shed-thresholds", "", "mempool-occupancy fractions raising shed level 1,2,3 (default 0.5,0.75,0.9)")
		ingressBy = flag.Int("ingress-bytes", 0, "per-client-connection ingress budget in bytes/s (0 = unlimited)")
		gossip    = flag.Bool("gossip", false, "epidemic relay: broadcast consensus traffic to a random fanout of peers instead of all-to-all (off = exact direct-broadcast path)")
		fanout    = flag.Int("fanout", 0, "gossip relay fanout (0 = ceil(log2(n+1))+1 for the committee size)")
		dupeTTL   = flag.Duration("dupemap-ttl", 0, "gossip dupemap generation TTL on a stalled chain (0 = default)")
		quiet     = flag.Bool("quiet", false, "suppress per-block logging")
		dataPath  = flag.String("data", "", "block-log file for durable persistence; the vote WAL lives at <data>.wal (empty = in-memory only)")
		fsync     = flag.Bool("fsync", false, "fsync the block log and vote WAL after every write")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus-text metrics on this host:port (empty = off)")
		retain    = flag.Int("retain-eras", 2, "signed era snapshots retained in <data>.snap; each era boundary writes one and compacts the block log below the oldest kept (gpbft with -data; 0 = off)")
		fsThresh  = flag.Uint64("fast-sync-threshold", 0, "block gap at which catch-up installs a peer snapshot instead of replaying (0 = engine default)")
	)
	flag.Parse()

	if *nodes == 0 {
		*nodes = *committee
	}
	if *index < 0 || *index >= *nodes {
		return fmt.Errorf("index %d out of range [0,%d)", *index, *nodes)
	}
	if *committee < 4 {
		return fmt.Errorf("committee must be at least 4")
	}
	if *protocol != "pbft" && *protocol != "gpbft" {
		return fmt.Errorf("unknown -protocol %q", *protocol)
	}
	// Deterministic identities and positions: every node derives the
	// same genesis.
	keys := make([]*gcrypto.KeyPair, *nodes)
	for i := range keys {
		keys[i] = gcrypto.DeterministicKeyPair(i)
	}
	self := keys[*index]
	g := assemble.DeploymentGenesis(*chainID, *protocol, *committee, *eraPeriod, *swPeriod, *report)
	weights, err := parseTriple(*laneWts, strconv.Atoi)
	if err != nil {
		return fmt.Errorf("-lane-weights: %v", err)
	}
	thresholds, err := parseTriple(*shedThr, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
	if err != nil {
		return fmt.Errorf("-shed-thresholds: %v", err)
	}
	cfg := assemble.Config{
		Genesis:    g,
		Key:        self,
		Index:      *index,
		Engine:     core.Config{Epoch: g.Timestamp, MaxInFlight: *inflight},
		Batch:      *batch,
		MempoolCap: *poolCap,
	}

	// Durable persistence: the node is rebuilt from its durable
	// directory (block log, retained era snapshots, consensus WAL), then
	// persists every vote before sending it and every commit before
	// acknowledging it. Close (which syncs) runs on every exit path via
	// the defer.
	if *dataPath != "" {
		opts := store.DirOptions{Sync: *fsync, Logf: log.Printf}
		// Restart at scale: boot from the newest verifiable era snapshot
		// and replay only the block-log tail above its checkpoint.
		if *retain > 0 && *protocol == "gpbft" {
			opts.Retain, opts.Compact = *retain, true
			cfg.Engine.FastSyncThreshold = *fsThresh
		}
		dir, err := store.OpenDir(store.OS, *dataPath, opts)
		if err != nil {
			return err
		}
		defer dir.Close()
		cfg.Durable = dir
		if n := len(dir.Recovered()); n > 0 {
			log.Printf("recovered %d consensus records from %s.wal", n, *dataPath)
		}
	}

	// Overload armor: the admission controller charges one token bucket
	// per sender identity and sheds load by lane as the pool fills, and
	// the mempool grows priority lanes. The deployment's own
	// deterministic node identities are exempt — their location reports
	// and evidence are the control traffic the armor exists to protect,
	// and authenticated committee members are not the flood surface
	// (unattributed client connections are). Without -rate-limit the
	// pool without lanes keeps the exact pre-armor behaviour.
	if *rateLimit > 0 {
		cfg.QoS = &runtime.QoSConfig{LaneWeights: weights}
		cfg.Admission = &runtime.AdmissionConfig{
			Rate:           *rateLimit,
			Burst:          *rateBurst,
			ShedThresholds: thresholds,
		}
		for i := 0; i < *nodes; i++ {
			cfg.Admission.Exempt = append(cfg.Admission.Exempt, keys[i].Address())
		}
	}
	if *gossip {
		// Epidemic relay over the same TCP peer set: engine broadcasts
		// queue on the relay and flush as batched frames to a random
		// fanout; the dupemap drops re-deliveries.
		cfg.Relay = &consensus.RelayConfig{Fanout: *fanout, DupeTTL: consensus.Time(*dupeTTL)}
	}

	built, err := assemble.Node(cfg)
	if err != nil {
		return err
	}
	if built.Refused != nil {
		log.Printf("WARNING: %v (replaying instead)", built.Refused)
	}
	if built.Snapshot != nil {
		log.Printf("restored snapshot height=%d era=%d from %s.snap", built.Snapshot.Height(), built.Snapshot.Era(), *dataPath)
	}
	node := built.Node
	chain := node.App.Chain()
	if built.Replayed > 0 {
		log.Printf("recovered %d blocks from %s (height %d)", built.Replayed, *dataPath, chain.Height())
	}
	if node.Relay != nil {
		log.Printf("gossip relay on: fanout=%d flush=%v", node.Relay.Stats().Fanout, time.Duration(node.Relay.FlushEvery()))
	}

	addr := *listen
	if addr == "" {
		addr = fmt.Sprintf("%s:%d", *host, *basePort+*index)
	}
	tcpCfg := transport.Config{Listen: addr, Key: self, IngressBytesPerSec: *ingressBy}
	if adm := node.Admission; adm != nil {
		// The transport gate is the single admission charge for network
		// requests; rejected client requests get a signed TxRejected reply
		// with the retry-after hint. The clock only has to be monotone and
		// shared with Observe to within the recalc interval, so an
		// independent start instant is fine.
		admStart := time.Now()
		tcpCfg.AdmitTx = func(tx *types.Transaction) error {
			return adm.Admit(time.Since(admStart), tx)
		}
	}
	tcp, err := transport.New(tcpCfg)
	if err != nil {
		return err
	}
	defer tcp.Close()
	for i := 0; i < *nodes; i++ {
		if i != *index {
			tcp.AddPeer(transport.Peer{
				Addr:     keys[i].Address(),
				HostPort: fmt.Sprintf("%s:%d", *host, *basePort+i),
			})
		}
	}

	if !*quiet {
		node.OnCommit = func(now consensus.Time, b *types.Block) {
			log.Printf("committed height=%d era=%d txs=%d fees=%d hash=%s",
				b.Header.Height, b.Header.Era, len(b.Txs), b.TotalFees(), b.Hash().Short())
		}
		node.OnEraSwitch = func(now consensus.Time, era uint64, com []gcrypto.Address) {
			log.Printf("era switch -> era=%d committee=%d", era, len(com))
		}
	}
	runner := transport.NewRunner(node, tcp)

	// Operator observability: transport frame/byte/redial counters plus
	// node event counters, in Prometheus text format. Watching
	// gpbft_transport_redials_total and per-peer states live shows
	// era-switch-induced disconnect churn on a real deployment.
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			s := scrape{
				transport: runner.Stats(),
				node:      node.Counters(),
				gossip:    node.Relay != nil,
				forks:     chain.ForkCount(),
				evidence:  chain.EvidenceCount(),
				banned:    len(chain.Banned()),
			}
			s.snapshots, s.compactedBytes = cfg.Durable.Counts()
			writeMetrics(w, s)
		})
		msrv := &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		defer msrv.Close()
		log.Printf("metrics on http://%s/metrics", *metrics)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		cancel()
	}()

	// Periodic own location reports keep this node authenticated (and
	// let candidate nodes qualify).
	if *protocol == "gpbft" && *report > 0 {
		go func() {
			nonce := uint64(0)
			ticker := time.NewTicker(*report)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					nonce++
					tx := &types.Transaction{
						Type:  types.TxLocationReport,
						Nonce: nonce,
						Geo:   types.GeoInfo{Location: assemble.DevicePosition(*index), Timestamp: time.Now().UTC()},
					}
					tx.Sign(self)
					_ = runner.Submit(tx)
				}
			}
		}()
	}

	log.Printf("gpbft-node index=%d addr=%s listen=%s protocol=%s committee=%d nodes=%d",
		*index, self.Address().Short(), addr, *protocol, *committee, *nodes)
	runner.Run(ctx)
	log.Printf("shutting down at height %d", chain.Height())
	if err := node.Halted(); err != nil {
		return fmt.Errorf("fail-stop: %w", err)
	}
	return nil
}

// parseTriple parses "a,b,c" with parse; empty gives zeros, which defer
// to the runtime's documented defaults.
func parseTriple[T any](s string, parse func(string) (T, error)) ([3]T, error) {
	var out [3]T
	if s == "" {
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return out, fmt.Errorf("want three comma-separated values, got %q", s)
	}
	for i, p := range parts {
		v, err := parse(strings.TrimSpace(p))
		if err != nil {
			return out, fmt.Errorf("value %d of %q: %v", i+1, s, err)
		}
		out[i] = v
	}
	return out, nil
}
