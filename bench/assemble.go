package main

// assemble.go is the benchmark's pinned surface: every constructor and
// accessor of the repository it calls to build and observe a cluster
// lives in this file (layerpass.go holds the per-layer functions the
// layer pass times). A refactor that breaks this file needs a
// benchmark issue alongside it; bench/README.md lists the surface.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"gpbft"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/transport"
	"gpbft/internal/types"
)

// site is where the TCP committees sit; client identities claim cells
// east of it, one each, so the Sybil same-cell detector stays quiet.
var site = geo.Point{Lng: 114.17, Lat: 22.30}

// commitHook observes a block committed by one node.
type commitHook func(node int, now time.Duration, b *types.Block)

// seededKey derives identity i of a run from the workload seed.
func seededKey(seed int64, i int) *gcrypto.KeyPair {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(i))
	sum := sha256.Sum256(buf[:])
	kp, err := gcrypto.KeyPairFromSeed(sum[:])
	if err != nil {
		panic(err) // a 32-byte seed is always accepted
	}
	return kp
}

// clientTx builds and signs offered transaction k of client c.
func clientTx(kp *gcrypto.KeyPair, c int, nonce uint64, payload []byte, at time.Time) *types.Transaction {
	tx := &types.Transaction{
		Type:    types.TxNormal,
		Nonce:   nonce,
		Payload: payload,
		Fee:     1,
		Geo: types.GeoInfo{
			Location:  geo.Point{Lng: site.Lng + 0.5*float64(c+1), Lat: site.Lat},
			Timestamp: at,
		},
	}
	tx.Sign(kp)
	return tx
}

// tcpCluster is n real runtime.Nodes, each behind its own
// transport.TCP endpoint on 127.0.0.1, in this process — assembled as
// internal/loadgen/tcp.go does, era switch off.
type tcpCluster struct {
	n       int
	epoch   time.Time
	keys    []*gcrypto.KeyPair
	chains  []*ledger.Chain
	nodes   []*runtime.Node
	engines []*core.Engine
	tcps    []*transport.TCP
	runners []*transport.Runner
	wals    []*store.WAL
	logs    []*store.BlockLog

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// tcpOptions selects the durable store and the tracing wrappers.
type tcpOptions struct {
	n       int
	durable string // directory for per-node WAL and block log ("" = in memory)
	trace   *tracer
	hook    commitHook
}

func newTCPCluster(o tcpOptions) (*tcpCluster, error) {
	n := o.n
	c := &tcpCluster{
		n:       n,
		epoch:   time.Now(),
		keys:    make([]*gcrypto.KeyPair, n),
		chains:  make([]*ledger.Chain, n),
		nodes:   make([]*runtime.Node, n),
		engines: make([]*core.Engine, n),
		tcps:    make([]*transport.TCP, n),
		runners: make([]*transport.Runner, n),
	}
	g := &ledger.Genesis{ChainID: "gpbft-benchmark", Timestamp: c.epoch, Policy: ledger.DefaultPolicy()}
	for i := 0; i < n; i++ {
		c.keys[i] = gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: c.keys[i].Address(),
			PubKey:  c.keys[i].Public(),
			Geohash: geo.MustEncode(site, geo.CSCPrecision),
		})
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	const batch = 32
	for i := 0; i < n; i++ {
		i := i
		chain, err := ledger.NewChain(g)
		if err != nil {
			return nil, err
		}
		c.chains[i] = chain
		app := runtime.NewApp(chain, runtime.NewMempoolShards(0, 0), c.keys[i].Address(), c.epoch, batch)
		app.SetMaxBatch(4 * batch)
		cfg := core.Config{
			Chain:              chain,
			Key:                c.keys[i],
			App:                app,
			Timers:             consensus.NewTimerAllocator(),
			Epoch:              c.epoch,
			CheckpointInterval: 16,
			ViewChangeTimeout:  20 * time.Second,
			ProposerPolicy:     core.ProposerAddress,
			DisableEraSwitch:   true,
		}
		var probe *nodeProbe
		if o.trace != nil {
			probe = o.trace.node(i)
		}
		var blockLog *store.BlockLog
		if o.durable != "" {
			wal, _, err := store.OpenWAL(filepath.Join(o.durable, fmt.Sprintf("node%d.wal", i)), store.WALOptions{})
			if err != nil {
				return nil, err
			}
			c.wals = append(c.wals, wal)
			cfg.WAL = wal
			if probe != nil {
				cfg.WAL = &walProbe{inner: wal, p: probe}
			}
			blockLog, _, err = store.Open(filepath.Join(o.durable, fmt.Sprintf("node%d.blk", i)), store.Options{Sync: true})
			if err != nil {
				return nil, err
			}
			c.logs = append(c.logs, blockLog)
		}
		eng, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		c.engines[i] = eng
		node := &runtime.Node{ID: c.keys[i].Address(), Key: c.keys[i], App: app, Engine: eng}
		if probe != nil {
			node.Engine = newEngineProbe(eng, probe)
		}
		node.OnCommit = func(now consensus.Time, b *types.Block) {
			if blockLog != nil {
				t0 := time.Now()
				if err := blockLog.Append(b); err != nil && node.CommitErr == nil {
					node.CommitErr = err
				}
				if probe != nil {
					probe.blockLogAppend(t0, time.Now(), b.Header.Height)
				}
			}
			if probe != nil {
				used, _ := eng.InFlight()
				probe.committed(b.Header.Height, used, app.Pool().Len())
			}
			// Every node's clock is the process clock: take commit times
			// from the cluster epoch, not from each runner's own start.
			o.hook(i, time.Since(c.epoch), b)
		}
		c.nodes[i] = node
		tcp, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Self: c.keys[i].Address(), Key: c.keys[i]})
		if err != nil {
			return nil, fmt.Errorf("node %d listen: %w", i, err)
		}
		c.tcps[i] = tcp
		c.runners[i] = transport.NewRunner(node, tcp)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				c.tcps[i].AddPeer(transport.Peer{Addr: c.keys[j].Address(), HostPort: c.tcps[j].ListenAddr()})
			}
		}
	}
	for i := 0; i < n; i++ {
		c.wg.Add(1)
		go func(r *transport.Runner) {
			defer c.wg.Done()
			r.Run(ctx)
		}(c.runners[i])
	}
	ok = true
	return c, nil
}

// submit hands tx to node i's event loop and waits for its verdict.
func (c *tcpCluster) submit(i int, tx *types.Transaction) error { return c.runners[i].Submit(tx) }

// close stops every runner and endpoint and waits for them.
func (c *tcpCluster) close() {
	c.cancel()
	for _, t := range c.tcps {
		if t != nil {
			t.Close()
		}
	}
	c.wg.Wait()
	for _, w := range c.wals {
		w.Close()
	}
	for _, l := range c.logs {
		l.Close()
	}
}

// transportTotals sums the endpoints' counters.
func (c *tcpCluster) transportTotals() (framesOut, bytesOut, dropped, redials int64) {
	for _, r := range c.runners {
		s := r.Stats()
		framesOut += s.FramesOut
		bytesOut += s.BytesOut
		dropped += s.Dropped
		redials += s.Redials
	}
	return
}

// nodeTotals sums the nodes' runtime counters that the live metrics
// use; viewChanges and eraSwitches are the most any one node saw.
type nodeTotals struct {
	submitted    uint64
	poolRejected uint64
	viewChanges  uint64
	eraSwitches  uint64
}

func (c *tcpCluster) totals() nodeTotals {
	var t nodeTotals
	for _, nd := range c.nodes {
		addCounters(&t, nd.Counters())
	}
	return t
}

func addCounters(t *nodeTotals, cs runtime.CounterSnapshot) {
	t.submitted += cs.Submitted
	t.poolRejected += cs.Pool.RejectedFull + cs.Pool.RejectedDup
}

// genesis is the founding configuration every node's chain started from.
func (c *tcpCluster) genesis() *ledger.Genesis { return c.chains[0].Genesis() }

// chainOf returns node i's chain blocks and its commit error.
func (c *tcpCluster) chainOf(i int) ([]*types.Block, error) {
	return c.chains[i].Blocks(), c.nodes[i].CommitErr
}

// viewChanges is the most view changes any node completed; engine
// state is only safe to read after close().
func (c *tcpCluster) viewChanges() uint64 {
	var v uint64
	for _, e := range c.engines {
		if in := e.Inner(); in != nil {
			v = max(v, in.CompletedViewChanges())
		}
	}
	return v
}

// sigCacheStats is the process-wide transaction signature cache.
func sigCacheStats() (hits, misses uint64) { return types.SigCacheStats() }

// batchWorkers is the verification pool width the run used.
func batchWorkers() int { return gcrypto.BatchWorkers() }

// --- simulator ---

// simCluster is gpbft.NewCluster on LANProfile with real signature
// verification; every node's engine and commit hook are the bench's.
type simCluster struct {
	cl *gpbft.Cluster
	// viewChanges[i] counts node i's completed view changes in eras
	// that are over; an era switch replaces the inner PBFT instance and
	// its counter with it.
	viewChanges []uint64
}

// simShape is the part of a sim workload that reaches gpbft.Options.
type simShape struct {
	nodes        int
	maxEndorsers int
	eras         bool // Table III schedule: EraPeriod 10 s, ForceEraSwitch, reports every 2 s
}

func newSimCluster(seed int64, s simShape, tr *tracer, hook commitHook) (*simCluster, error) {
	o := gpbft.DefaultOptions(gpbft.GPBFT, s.nodes)
	o.Seed = seed
	o.Network = gpbft.LANProfile()
	if s.eras {
		// harness.clusterOptions: the paper's Table III deployment.
		o.MaxEndorsers = s.maxEndorsers
		o.EraPeriod = 10 * time.Second
		o.SwitchPeriod = 250 * time.Millisecond
		o.QualificationWindow = 3 * o.EraPeriod
		o.ReportInterval = 2 * time.Second
		o.ForceEraSwitch = true
	} else {
		o.DisableEraSwitch = true
	}
	cl, err := gpbft.NewCluster(o)
	if err != nil {
		return nil, err
	}
	sc := &simCluster{cl: cl, viewChanges: make([]uint64, cl.NodeCount())}
	for i := 0; i < cl.NodeCount(); i++ {
		i := i
		node := cl.Node(i)
		eng := cl.CoreEngine(i)
		era, eraViewChanges := eng.Era(), uint64(0)
		var probe *nodeProbe
		if tr != nil {
			probe = tr.node(i)
			node.Engine = newEngineProbe(node.Engine, probe)
		}
		node.OnCommit = func(now consensus.Time, b *types.Block) {
			if probe != nil {
				used, _ := eng.InFlight()
				probe.committed(b.Header.Height, used, node.App.Pool().Len())
			}
			if e := eng.Era(); e != era {
				sc.viewChanges[i] += eraViewChanges
				era, eraViewChanges = e, 0
			}
			if in := eng.Inner(); in != nil {
				eraViewChanges = in.CompletedViewChanges()
			}
			hook(i, now, b)
		}
	}
	return sc, nil
}

// nodeTx signs node i's own data transaction due at virtual time at.
func (s *simCluster) nodeTx(i int, at time.Duration, payload []byte) *types.Transaction {
	return s.cl.NewNodeTx(i, at, payload, 1)
}

// at schedules fn on the simulator's event loop.
func (s *simCluster) at(t time.Duration, fn func(now time.Duration)) { s.cl.Net().Schedule(t, fn) }

// submit injects tx through node via, on the event loop.
func (s *simCluster) submit(via int, now time.Duration, tx *types.Transaction) error {
	return s.cl.Node(via).Submit(now, tx)
}

// scheduleReports is the G-PBFT devices' periodic location upload.
func (s *simCluster) scheduleReports(i int, start, every time.Duration, count int) {
	s.cl.ScheduleReports(i, start, every, count)
}

// runTo drives the event loop up to virtual time t.
func (s *simCluster) runTo(t time.Duration) { s.cl.Run(t) }

// run drives the event loop to quiescence or the cap and returns the
// number of events processed.
func (s *simCluster) run(cap time.Duration) int { return s.cl.Net().RunUntilIdle(cap) }

// primaryIndex names the node the current inner PBFT instance calls
// primary (-1 if node 0 is not an endorser).
func (s *simCluster) primaryIndex() int {
	in := s.cl.CoreEngine(0).Inner()
	if in == nil {
		return -1
	}
	p := in.Primary()
	for i := 0; i < s.cl.NodeCount(); i++ {
		if s.cl.Address(i) == p {
			return i
		}
	}
	return -1
}

// crash silences node i from now on.
func (s *simCluster) crash(i int) { s.cl.Net().Crash(s.cl.Address(i)) }

func (s *simCluster) totals() nodeTotals {
	var t nodeTotals
	for i := 0; i < s.cl.NodeCount(); i++ {
		addCounters(&t, s.cl.NodeCounters(i))
		e := s.cl.CoreEngine(i)
		t.eraSwitches = max(t.eraSwitches, e.EraSwitches())
		vc := s.viewChanges[i]
		if in := e.Inner(); in != nil {
			vc += in.CompletedViewChanges()
		}
		t.viewChanges = max(t.viewChanges, vc)
	}
	return t
}

// traffic is the simulated network's byte and message meter.
func (s *simCluster) traffic() (kb float64, msgs int64) {
	return s.cl.Traffic().KB(), s.cl.Traffic().Messages()
}

// agreement checks identical block hashes at every shared height.
func (s *simCluster) agreement() error {
	_, err := s.cl.VerifyAgreement()
	return err
}

// longestChain returns the blocks of the node with the highest head.
func (s *simCluster) longestChain() []*types.Block {
	best := s.cl.Node(0).App.Chain()
	for i := 1; i < s.cl.NodeCount(); i++ {
		if ch := s.cl.Node(i).App.Chain(); ch.Height() > best.Height() {
			best = ch
		}
	}
	return best.Blocks()
}

func (s *simCluster) genesis() *ledger.Genesis { return s.cl.Genesis() }

func (s *simCluster) now() time.Duration { return s.cl.Now() }
