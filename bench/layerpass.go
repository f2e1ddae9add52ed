package main

// layerpass.go is the single-goroutine layer pass of a traced run: it
// replays the run's own committed blocks and the envelopes the engine
// decorator captured through each layer's public functions and prices
// one operation of each. Together with assemble.go it is the
// benchmark's pinned surface; the functions it calls are listed in
// README.md.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	rt "gpbft/internal/runtime"
	"gpbft/internal/store"
	"gpbft/internal/transport"
	"gpbft/internal/types"
)

// passMin is the least time spent on each pass metric.
var passMin = 200 * time.Millisecond

// passResult maps a pass metric's name to its value.
type passResult map[string]float64

// perOp runs fn for at least passMin and returns nanoseconds per call.
// Calls are grouped so the clock is read about once a millisecond.
func perOp(fn func()) float64 {
	group, calls := 1, 0
	start := time.Now()
	for {
		g0 := time.Now()
		for i := 0; i < group; i++ {
			fn()
		}
		calls += group
		now := time.Now()
		if now.Sub(start) >= passMin {
			return float64(now.Sub(start)) / float64(calls)
		}
		if now.Sub(g0) < time.Millisecond {
			group *= 2
		}
	}
}

// timedRounds alternates an untimed prepare with a timed run until the
// timed part has used passMin; it returns nanoseconds per unit, each
// round counting for units.
func timedRounds(units int, prepare, run func()) float64 {
	var spent time.Duration
	rounds := 0
	for spent < passMin {
		prepare()
		t0 := time.Now()
		run()
		spent += time.Since(t0)
		rounds++
	}
	return float64(spent) / float64(rounds*units)
}

// rawPayload re-seals a captured envelope's body; rawSink opens one.
// The pass prices the envelope layer, not the message it carries.
type rawPayload struct {
	kind consensus.MsgKind
	body []byte
}

func (p rawPayload) Kind() consensus.MsgKind          { return p.kind }
func (p rawPayload) MarshalCanonical(w *codec.Writer) { w.Raw(p.body) }

type rawSink struct{}

func (rawSink) UnmarshalCanonical(r *codec.Reader) error {
	r.ReadRaw(r.Remaining())
	return r.Err()
}

// layerPass prices every pass metric. Blocks come from the measured
// run's chain; envelopes from what its nodes received. Inputs the run
// cannot supply (fresh signatures, WAL records) are made from the seed.
func layerPass(o *outcome, tr *tracer, seed int64, scratch string) passResult {
	res := passResult{}
	rng := rand.New(rand.NewSource(seed))
	kp := seededKey(seed, 9000)

	// --- inputs ---
	var blocks []*types.Block
	var txs []types.Transaction
	if len(o.chains) > 0 {
		for _, b := range o.chains[0] {
			if len(b.Txs) > 0 {
				blocks = append(blocks, b)
				txs = append(txs, b.Txs...)
			}
		}
	}
	var envs []*consensus.Envelope
	for _, p := range tr.nodes {
		for _, e := range p.captured {
			if e.MsgKind != consensus.KindRelay && len(envs) < maxCaptured {
				envs = append(envs, e)
			}
		}
	}
	if len(blocks) == 0 || len(envs) == 0 {
		return res // nothing committed: the run is already reported wrong
	}
	nTx := len(txs)
	txPtrs := make([]*types.Transaction, nTx)
	for i := range txs {
		txPtrs[i] = &txs[i]
	}
	next := func(n int) func() int {
		i := -1
		return func() int { i = (i + 1) % n; return i }
	}

	// --- gcrypto ---
	msg := make([]byte, 160)
	rng.Read(msg)
	sig := kp.Sign(msg)
	res["gcrypto.sign_ns"] = perOp(func() { kp.Sign(msg) })
	res["gcrypto.verify_ns"] = perOp(func() { _ = gcrypto.Verify(kp.Public(), kp.Address(), msg, sig) })
	items := make([]gcrypto.BatchItem, 128)
	for i := range items {
		m := make([]byte, 160)
		rng.Read(m)
		items[i] = gcrypto.BatchItem{Pub: kp.Public(), Addr: kp.Address(), Msg: m, Sig: kp.Sign(m)}
	}
	res["gcrypto.verify_batch_ns_per_sig"] = perOp(func() { gcrypto.VerifyBatch(items) }) / float64(len(items))
	leaves := make([][]byte, 0, 128)
	for i := 0; i < nTx && i < 128; i++ {
		leaves = append(leaves, types.EncodeTx(&txs[i]))
	}
	res["gcrypto.merkle_root_ns_per_tx"] = perOp(func() { gcrypto.MerkleRoot(leaves) }) / float64(len(leaves))

	// --- geo ---
	pt := txs[0].Geo.Location
	res["geo.encode_ns"] = perOp(func() { _, _ = geo.Encode(pt, geo.CSCPrecision) })

	// --- codec ---
	blockTxs := 0
	encoded := make([][]byte, len(blocks))
	for i, b := range blocks {
		encoded[i] = types.EncodeBlock(b)
		blockTxs += len(b.Txs)
	}
	perBlockTx := float64(blockTxs) / float64(len(blocks))
	nb := next(len(blocks))
	res["codec.block_encode_ns_per_tx"] = perOp(func() { types.EncodeBlock(blocks[nb()]) }) / perBlockTx
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	decodes := 0
	res["codec.block_decode_ns_per_tx"] = perOp(func() {
		_, _ = types.DecodeBlock(encoded[nb()])
		decodes++
	}) / perBlockTx
	runtime.ReadMemStats(&ms1)
	res["codec.allocs_per_block_decode"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(decodes)
	wire := make([][]byte, len(envs))
	for i, e := range envs {
		wire[i] = consensus.EncodeEnvelope(e)
	}
	ne := next(len(envs))
	res["codec.envelope_encode_ns"] = perOp(func() { consensus.EncodeEnvelope(envs[ne()]) })
	res["codec.envelope_decode_ns"] = perOp(func() { _, _ = consensus.DecodeEnvelope(wire[ne()]) })

	// --- consensus ---
	res["consensus.seal_ns"] = perOp(func() {
		e := envs[ne()]
		consensus.Seal(kp, rawPayload{e.MsgKind, e.Body})
	})
	const openBatch = 256
	fresh := make([]*consensus.Envelope, openBatch)
	res["consensus.open_ns"] = timedRounds(openBatch, func() {
		for i := range fresh {
			fresh[i], _ = consensus.DecodeEnvelope(wire[ne()])
		}
	}, func() {
		for _, e := range fresh {
			_ = consensus.Open(e, e.MsgKind, rawSink{})
		}
	})
	res["consensus.open_memo_ns"] = perOp(func() {
		e := fresh[ne()%openBatch]
		_ = consensus.Open(e, e.MsgKind, rawSink{})
	})
	a, b := seededKey(seed, 9001).Address(), seededKey(seed, 9002).Address()
	const relayBatch = 64
	res["consensus.relay_ns_per_env"] = perOp(func() {
		from := consensus.NewRelay(consensus.RelayConfig{Self: a, Peers: []gcrypto.Address{a, b}, Seed: 1})
		to := consensus.NewRelay(consensus.RelayConfig{Self: b, Peers: []gcrypto.Address{a, b}, Seed: 2})
		for i := 0; i < relayBatch; i++ {
			from.Broadcast(0, envs[ne()])
		}
		from.Flush(0, func(_ gcrypto.Address, frame *consensus.Envelope) { _, _ = to.Receive(0, frame) })
	}) / relayBatch
	hashes := make([]gcrypto.Hash, 4096)
	for i := range hashes {
		binary.LittleEndian.PutUint64(hashes[i][:], rng.Uint64())
	}
	dm := consensus.NewDupeMap(0, 0, 0)
	nh := next(len(hashes))
	res["consensus.dupemap_seen_ns"] = perOp(func() { dm.Seen(0, hashes[nh()]) })

	// --- types ---
	const coldBatch = 512
	cold := make([]types.Transaction, coldBatch)
	serial := uint64(0)
	res["types.verify_txs_cold_ns_per_tx"] = timedRounds(coldBatch, func() {
		for i := range cold {
			serial++
			var p [8]byte
			binary.LittleEndian.PutUint64(p[:], serial)
			cold[i] = *clientTx(kp, 0, serial, p[:], time.Unix(1, 0))
		}
	}, func() { types.VerifyTxs(cold) })
	warm := blocks[len(blocks)/2].Txs
	types.VerifyTxs(warm)
	res["types.verify_txs_warm_ns_per_tx"] = perOp(func() { types.VerifyTxs(warm) }) / float64(len(warm))

	// --- runtime ---
	poolN := nTx
	if poolN > 4096 {
		poolN = 4096
	}
	fill := func() *rt.Mempool {
		pool := rt.NewMempoolShards(0, 0)
		for i := 0; i < poolN; i++ {
			_ = pool.Add(txPtrs[i])
		}
		return pool
	}
	addNs := perOp(func() { fill() }) / float64(poolN)
	res["runtime.pool_add_ns"] = addNs
	full := fill()
	res["runtime.pool_peek_ns_per_tx"] = perOp(func() { full.Peek(128) }) / float64(min(128, poolN))
	both := perOp(func() { fill().MarkCommitted(txs[:poolN]) }) / float64(poolN)
	res["runtime.pool_mark_committed_ns_per_tx"] = max(both-addNs, 0)
	if g := o.genesis; g != nil {
		if chain, err := ledger.NewChain(g); err == nil {
			app := rt.NewApp(chain, full, kp.Address(), g.Timestamp, 32)
			app.SetMaxBatch(128)
			res["runtime.build_block_us"] = perOp(func() { app.BuildBlock(0, 0, 0, 1) }) / 1e3
		}
		ledgerPass(res, o.genesis, o.chains[0], txPtrs)
		storePass(res, o.genesis, o.chains[0], kp, scratch)
	}

	// --- transport ---
	res["transport.frame_write_ns"] = perOp(func() { _ = transport.WriteFrame(io.Discard, envs[ne()]) })
	frames := make([][]byte, len(envs))
	for i, e := range envs {
		var buf bytes.Buffer
		_ = transport.WriteFrame(&buf, e)
		frames[i] = buf.Bytes()
	}
	var rd bytes.Reader
	res["transport.frame_read_ns"] = perOp(func() {
		rd.Reset(frames[ne()])
		_, _ = transport.ReadFrame(&rd)
	})
	res["transport.loopback_rt_us"] = loopbackPass(seed, envs[0]) / 1e3
	return res
}

// ledgerPass replays the run's chain onto fresh chains: ValidateBlock,
// then AddBlock (which validates again before applying, so the apply
// cost is the difference).
func ledgerPass(res passResult, g *ledger.Genesis, chain []*types.Block, txs []*types.Transaction) {
	var validate, add time.Duration
	var nBlocks, nTxs int
	var last *ledger.Chain
	for validate+add < 2*passMin {
		c, err := ledger.NewChain(g)
		if err != nil {
			return
		}
		for _, b := range chain[1:] {
			t0 := time.Now()
			verr := c.ValidateBlock(b)
			t1 := time.Now()
			aerr := c.AddBlock(b)
			t2 := time.Now()
			if verr != nil || aerr != nil {
				break
			}
			validate += t1.Sub(t0)
			add += t2.Sub(t1)
			nBlocks++
			nTxs += len(b.Txs)
		}
		last = c
		if nBlocks == 0 {
			return
		}
	}
	res["ledger.validate_us_per_block"] = float64(validate) / float64(nBlocks) / 1e3
	res["ledger.addblock_us_per_block"] = float64(add) / float64(nBlocks) / 1e3
	if nTxs > 0 {
		res["ledger.apply_ns_per_tx"] = max(float64(add-validate), 0) / float64(nTxs)
	}
	i := -1
	res["ledger.check_admissible_ns"] = perOp(func() {
		i = (i + 1) % len(txs)
		_ = last.CheckTxAdmissible(txs[i])
	})
	res["ledger.export_state_ms"] = perOp(func() { last.ExportState() }) / 1e6
	st := last.ExportState()
	res["ledger.state_root_ms"] = perOp(func() { st.Root() }) / 1e6
}

// storePass prices the WAL with and without fsync and one snapshot
// file round trip of the run's final state, in the scratch directory.
func storePass(res passResult, g *ledger.Genesis, chain []*types.Block, kp *gcrypto.KeyPair, scratch string) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return
	}
	dir, err := os.MkdirTemp(scratch, "pass-")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	rec := store.WALRecord{Kind: store.WALPrepare, Era: 0, View: 0, Seq: 1, Digest: chain[len(chain)-1].Hash()}
	for _, v := range []struct {
		name   string
		noSync bool
	}{{"store.wal_append_nosync_us", true}, {"store.wal_append_fsync_us", false}} {
		wal, _, err := store.OpenWAL(filepath.Join(dir, v.name), store.WALOptions{NoSync: v.noSync})
		if err != nil {
			return
		}
		res[v.name] = perOp(func() {
			rec.Seq++
			_ = wal.Append(rec)
		}) / 1e3
		wal.Close()
	}
	c, err := ledger.NewChain(g)
	if err != nil {
		return
	}
	for _, b := range chain[1:] {
		if c.AddBlock(b) != nil {
			break
		}
	}
	snap := store.NewSnapshot(c.ExportState(), kp)
	path := filepath.Join(dir, "state.snap")
	res["store.snapshot_write_ms"] = perOp(func() { _ = store.WriteSnapshotFile(path, snap) }) / 1e6
	res["store.snapshot_read_ms"] = perOp(func() { _, _ = store.ReadSnapshotFile(path) }) / 1e6
}

// loopbackPass bounces one envelope between two transport.TCP
// endpoints on 127.0.0.1 and returns nanoseconds per round trip.
func loopbackPass(seed int64, env *consensus.Envelope) float64 {
	ka, kb := seededKey(seed, 9003), seededKey(seed, 9004)
	ta, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Key: ka})
	if err != nil {
		return 0
	}
	defer ta.Close()
	tb, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Key: kb})
	if err != nil {
		return 0
	}
	defer tb.Close()
	ta.AddPeer(transport.Peer{Addr: kb.Address(), HostPort: tb.ListenAddr()})
	tb.AddPeer(transport.Peer{Addr: ka.Address(), HostPort: ta.ListenAddr()})
	lost := false
	trip := func() {
		if lost {
			return
		}
		_ = ta.Send(kb.Address(), env)
		select {
		case got := <-tb.Incoming():
			_ = tb.Send(ka.Address(), got)
		case <-time.After(2 * time.Second):
			lost = true
			return
		}
		select {
		case <-ta.Incoming():
		case <-time.After(2 * time.Second):
			lost = true
		}
	}
	trip() // dial and hello outside the timing
	ns := perOp(trip)
	if lost {
		return 0
	}
	return ns
}
