package loadgen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/runtime"
	"gpbft/internal/stats"
	"gpbft/internal/transport"
	"gpbft/internal/types"
)

// latencyRecorder tracks per-transaction wall-clock commit latency.
// Submissions come from the load goroutine, commit observations from
// node 0's runner loop.
type latencyRecorder struct {
	mu         sync.Mutex
	submits    map[gcrypto.Hash]time.Time
	latencies  []float64 // milliseconds
	committed  int
	lastCommit time.Time
}

func (r *latencyRecorder) submit(id gcrypto.Hash, at time.Time) {
	r.mu.Lock()
	r.submits[id] = at
	r.mu.Unlock()
}

func (r *latencyRecorder) observe(b *types.Block, at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Count only offered transactions, each exactly once (a block can
	// be observed again through the sync path; the submits map
	// arbitrates first-commit).
	for i := range b.Txs {
		if sub, ok := r.submits[b.Txs[i].ID()]; ok {
			delete(r.submits, b.Txs[i].ID())
			r.latencies = append(r.latencies, float64(at.Sub(sub))/float64(time.Millisecond))
			r.committed++
			r.lastCommit = at
		}
	}
}

func (r *latencyRecorder) snapshot() (committed int, last time.Time, lat []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed, r.lastCommit, append([]float64(nil), r.latencies...)
}

// runTCP builds an in-process TCP cluster — every endorser a real
// runtime.Node behind its own transport endpoint on 127.0.0.1 — and
// offers load at the configured rate, measuring wall-clock committed
// TPS and commit latency. This is the mode where the serial-vs-
// parallel verification knobs show up as real time.
func runTCP(c Config) (Result, error) {
	n := c.Committee
	epoch := time.Now()
	site := geo.Point{Lng: 114.17, Lat: 22.30}

	keys := make([]*gcrypto.KeyPair, n)
	g := &ledger.Genesis{ChainID: "gpbft-bench", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	for i := 0; i < n; i++ {
		keys[i] = gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: keys[i].Address(),
			PubKey:  keys[i].Public(),
			Geohash: geo.MustEncode(site, geo.CSCPrecision),
		})
	}
	if err := g.Validate(); err != nil {
		return Result{}, err
	}

	rec := &latencyRecorder{submits: make(map[gcrypto.Hash]time.Time)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	tcps := make([]*transport.TCP, n)
	runners := make([]*transport.Runner, n)
	chains := make([]*ledger.Chain, n)
	nodes := make([]*runtime.Node, n)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		for _, t := range tcps {
			if t != nil {
				t.Close()
			}
		}
		wg.Wait()
	}()

	for i := 0; i < n; i++ {
		chain, err := ledger.NewChain(g)
		if err != nil {
			return Result{}, err
		}
		chains[i] = chain
		pool := runtime.NewMempoolShards(c.MempoolCap, c.MempoolShards)
		app := runtime.NewApp(chain, pool, keys[i].Address(), epoch, c.BatchSize)
		// Deep offered backlogs pack fuller blocks instead of more rounds.
		// The one-slot ablation keeps the seed's fixed batch: it measures
		// the old scheduler, not adaptive sizing.
		if c.MaxInFlight != 1 {
			app.SetMaxBatch(4 * c.BatchSize)
		}
		eng, err := core.New(core.Config{
			Chain:              chain,
			Key:                keys[i],
			App:                app,
			Timers:             consensus.NewTimerAllocator(),
			Epoch:              epoch,
			CheckpointInterval: 16,
			ViewChangeTimeout:  20 * time.Second,
			MaxInFlight:        c.MaxInFlight,
			ProposerPolicy:     core.ProposerAddress,
			DisableEraSwitch:   true,
		})
		if err != nil {
			return Result{}, err
		}
		node := &runtime.Node{ID: keys[i].Address(), Key: keys[i], App: app, Engine: eng}
		if c.Gossip {
			peers := make([]gcrypto.Address, n)
			for k := range keys {
				peers[k] = keys[k].Address()
			}
			node.Relay = consensus.NewRelay(consensus.RelayConfig{
				Self:   keys[i].Address(),
				Peers:  peers,
				Fanout: c.GossipFanout,
				Seed:   c.Seed ^ int64(uint64(i+1)*0x9e3779b97f4a7c15),
			})
		}
		nodes[i] = node
		if i == 0 {
			node.OnCommit = func(_ consensus.Time, b *types.Block) {
				rec.observe(b, time.Now())
			}
		}
		tcp, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Self: keys[i].Address(), Key: keys[i]})
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: node %d listen: %w", i, err)
		}
		tcps[i] = tcp
		runners[i] = transport.NewRunner(node, tcp)
	}
	// Full-mesh address book, then start every event loop.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				tcps[i].AddPeer(transport.Peer{Addr: keys[j].Address(), HostPort: tcps[j].ListenAddr()})
			}
		}
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(r *transport.Runner) {
			defer wg.Done()
			r.Run(ctx)
		}(runners[i])
	}

	// Warm the mesh before the measured window: connections dial lazily
	// on first send, so without a preamble the n² dial-and-hello burst
	// and the first slow consensus round land inside the measurement.
	// The warmup transactions use distinct client keys and are not
	// recorded; the window opens once they have committed.
	for w := 0; w < 8; w++ {
		wtx := &types.Transaction{
			Type:    types.TxNormal,
			Nonce:   1,
			Payload: []byte{0xFF, byte(w)},
			Fee:     1,
			Geo:     types.GeoInfo{Location: geo.Point{Lng: site.Lng - 1 - float64(w), Lat: site.Lat}, Timestamp: epoch},
		}
		wtx.Sign(gcrypto.DeterministicKeyPair(5000 + w))
		_ = runners[w%n].Submit(wtx)
	}
	warmDeadline := time.Now().Add(3 * time.Second)
	for chains[0].Head().Header.Height == 0 && time.Now().Before(warmDeadline) {
		time.Sleep(10 * time.Millisecond)
	}

	// Pre-generate the whole offered load so signing cost stays out of
	// the measured window. Each sender claims its own geographic cell:
	// n identities all reporting one cell would trip the Sybil same-cell
	// detector and spend the measured window minting and re-verifying
	// evidence records — an accountability workload, not the commit hot
	// path this bench measures (chaos covers that pipeline).
	total := int(float64(c.Rate) * c.Duration.Seconds())
	txs := make([]*types.Transaction, total)
	for k := 0; k < total; k++ {
		at := geo.Point{Lng: site.Lng + float64(k%n), Lat: site.Lat}
		tx := &types.Transaction{
			Type:    types.TxNormal,
			Nonce:   uint64(k/n + 1),
			Payload: []byte{byte(k), byte(k >> 8), byte(k >> 16)},
			Fee:     1,
			Geo:     types.GeoInfo{Location: at, Timestamp: epoch.Add(time.Duration(k) * time.Millisecond)},
		}
		tx.Sign(keys[k%n])
		txs[k] = tx
	}

	// Offer load at the configured rate, round-robin across nodes.
	start := time.Now()
	interval := c.Duration / time.Duration(total)
	for k := 0; k < total; k++ {
		if target := start.Add(time.Duration(k) * interval); time.Until(target) > 0 {
			time.Sleep(time.Until(target))
		}
		rec.submit(txs[k].ID(), time.Now())
		_ = runners[k%n].Submit(txs[k])
	}

	// Drain: stop when everything offered has committed, or commits
	// stall, or the hard cap expires.
	hardCap := time.Now().Add(3*c.Duration + time.Minute)
	lastSeen, lastProgress := 0, time.Now()
	for {
		committed, _, _ := rec.snapshot()
		if committed >= total {
			break
		}
		if committed > lastSeen {
			lastSeen, lastProgress = committed, time.Now()
		}
		if time.Since(lastProgress) > 15*time.Second || time.Now().After(hardCap) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	committed, last, lat := rec.snapshot()
	if committed == 0 {
		return Result{}, fmt.Errorf("loadgen: tcp run committed nothing (offered %d)", total)
	}
	elapsed := last.Sub(start).Seconds()
	if elapsed <= 0 {
		elapsed = time.Since(start).Seconds()
	}
	res := Result{
		Offered:   total,
		Committed: committed,
		Elapsed:   elapsed,
		TPS:       float64(committed) / elapsed,
		P50Ms:     stats.Quantile(lat, 0.50),
		P99Ms:     stats.Quantile(lat, 0.99),
	}
	for _, node := range nodes {
		res.BlocksSynced += node.Counters().Sync.BlocksSynced
	}
	if c.Gossip {
		fillRelayResult(&res, n, chains[0].Head().Header.Height, func(i int) (consensus.RelayStats, int) {
			return nodes[i].Counters().Relay, nodes[i].Relay.Fanout()
		})
	}
	return res, nil
}
