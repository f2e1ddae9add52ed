package main

// layers.go names the per-layer metrics (layers are the repository's
// package names) and derives them from a traced run: live metrics from
// the decorators and counter deltas, pass metrics from layerpass.go,
// and the CPU attribution from live count x pass unit cost.

// perLayer is the code's side of BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	// core: the era-layer engine behind runtime.Node.Engine.
	{name: "core.engine_us_per_block", unit: "us"},
	{name: "core.on_envelope_us", unit: "us"},
	{name: "core.on_request_us", unit: "us"},
	{name: "core.on_timer_us", unit: "us"},
	{name: "core.envelopes_in_per_block", unit: "count"},
	{name: "core.msgs_out_per_block", unit: "count"},
	{name: "core.era_switches", unit: "count"},
	{name: "core.commit_gap_max_ms", unit: "ms"},
	{name: "pbft.view_changes", unit: "count"},
	{name: "pbft.inflight_mean", unit: "count"},
	{name: "runtime.txs_per_block", unit: "count"},
	{name: "runtime.submit_us_p50", unit: "us"},
	{name: "runtime.pool_depth_max", unit: "count"},
	{name: "runtime.pool_rejected", unit: "count"},
	{name: "runtime.pool_add_ns", unit: "ns"},
	{name: "runtime.pool_peek_ns_per_tx", unit: "ns"},
	{name: "runtime.pool_mark_committed_ns_per_tx", unit: "ns"},
	{name: "runtime.build_block_us", unit: "us"},
	{name: "consensus.seal_ns", unit: "ns"},
	{name: "consensus.open_ns", unit: "ns"},
	{name: "consensus.open_memo_ns", unit: "ns"},
	{name: "consensus.relay_ns_per_env", unit: "ns"},
	{name: "consensus.dupemap_seen_ns", unit: "ns"},
	{name: "codec.block_encode_ns_per_tx", unit: "ns"},
	{name: "codec.block_decode_ns_per_tx", unit: "ns"},
	{name: "codec.envelope_encode_ns", unit: "ns"},
	{name: "codec.envelope_decode_ns", unit: "ns"},
	{name: "codec.allocs_per_block_decode", unit: "count"},
	{name: "gcrypto.sign_ns", unit: "ns"},
	{name: "gcrypto.verify_ns", unit: "ns"},
	{name: "gcrypto.verify_batch_ns_per_sig", unit: "ns"},
	{name: "gcrypto.merkle_root_ns_per_tx", unit: "ns"},
	{name: "types.verify_txs_cold_ns_per_tx", unit: "ns"},
	{name: "types.verify_txs_warm_ns_per_tx", unit: "ns"},
	{name: "types.sigcache_hit_share", unit: "ratio"},
	{name: "ledger.validate_us_per_block", unit: "us"},
	{name: "ledger.addblock_us_per_block", unit: "us"},
	{name: "ledger.apply_ns_per_tx", unit: "ns"},
	{name: "ledger.check_admissible_ns", unit: "ns"},
	{name: "ledger.export_state_ms", unit: "ms"},
	{name: "ledger.state_root_ms", unit: "ms"},
	{name: "store.wal_appends_per_block", unit: "count"},
	{name: "store.wal_append_us_p50", unit: "us"},
	{name: "store.wal_append_us_p99", unit: "us"},
	{name: "store.wal_us_per_block", unit: "us"},
	{name: "store.blocklog_append_us_p50", unit: "us"},
	{name: "store.wal_append_nosync_us", unit: "us"},
	{name: "store.wal_append_fsync_us", unit: "us"},
	{name: "store.snapshot_write_ms", unit: "ms"},
	{name: "store.snapshot_read_ms", unit: "ms"},
	{name: "transport.frames_out_per_block", unit: "count"},
	{name: "transport.bytes_out_per_tx", unit: "B"},
	{name: "transport.dropped", unit: "count"},
	{name: "transport.redials", unit: "count"},
	{name: "transport.frame_write_ns", unit: "ns"},
	{name: "transport.frame_read_ns", unit: "ns"},
	{name: "transport.loopback_rt_us", unit: "us"},
	{name: "simnet.events_per_wall_s", unit: "1/s"},
	{name: "simnet.msgs_per_tx", unit: "count"},
	{name: "simnet.virtual_s_per_wall_s", unit: "ratio"},
	{name: "geo.encode_ns", unit: "ns"},
	{name: "gcrypto.cpu_share", unit: "ratio"},
	{name: "consensus.cpu_share", unit: "ratio"},
	{name: "codec.cpu_share", unit: "ratio"},
	{name: "ledger.cpu_share", unit: "ratio"},
	{name: "runtime.cpu_share", unit: "ratio"},
	{name: "store.cpu_share", unit: "ratio"},
	{name: "bench.cpu_unattributed_share", unit: "ratio"},
	{name: "bench.gen_lag_p99_ms", unit: "ms"},
	{name: "bench.trace_overhead_share", unit: "ratio"},
	{name: "bench.alloc_mb_per_ktx", unit: "MB"},
	{name: "bench.gc_cpu_share", unit: "ratio"},
	{name: "bench.peak_heap_mb", unit: "MB"},
	// The traced run's own values of the printed-only end-to-end metrics
	// (metrics.go), so that a trace can be read beside them.
	{name: "bench.failed_share", unit: "ratio"},
	{name: "bench.unavail_ms", unit: "ms"},
	{name: "bench.commit_p99_ms", unit: "ms"},
	{name: "bench.samples", unit: "count"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hookCostNs is the decorator's own cost per invocation: two clock
// reads, the counters and one span append, measured by wrapping an
// engine that does nothing.
func hookCostNs() float64 {
	tr := newTracer(1)
	e := newEngineProbe(nopEngine{}, tr.node(0))
	return perOp(func() { e.OnTimer(0, 1) })
}

func perLayerValues(w workload, o *outcome, tr *tracer, pass passResult) map[string]float64 {
	v := map[string]float64{}
	for k, x := range pass {
		v[k] = x
	}
	lv := o.live
	blocks := float64(o.blocks)
	var (
		calls     [spanKinds]uint64
		ns        [spanKinds]int64
		sends     uint64
		seals     uint64
		requestIn uint64
		nodeBlks  uint64
		inflight  uint64
		hookOps   uint64
		poolMax   int
		walNs     []int64
		logNs     []int64
	)
	for _, p := range tr.nodes {
		for k := 0; k < spanKinds; k++ {
			calls[k] += p.calls[k]
			ns[k] += p.ns[k]
		}
		sends += p.sends
		seals += p.envelopes
		requestIn += p.requestIn
		nodeBlks += p.blocks
		inflight += p.inflight
		hookOps += p.hookOps
		poolMax = max(poolMax, p.poolMax)
		walNs = append(walNs, p.walNs...)
		logNs = append(logNs, p.logNs...)
	}
	engineNs := ns[spanInit] + ns[spanEnvelope] + ns[spanRequest] + ns[spanTimer] + ns[spanCommitApplied]
	envIn := float64(calls[spanEnvelope])

	v["core.engine_us_per_block"] = ratio(float64(engineNs)/1e3, blocks)
	v["core.on_envelope_us"] = ratio(float64(ns[spanEnvelope])/1e3, envIn)
	v["core.on_request_us"] = ratio(float64(ns[spanRequest])/1e3, float64(calls[spanRequest]))
	v["core.on_timer_us"] = ratio(float64(ns[spanTimer])/1e3, float64(calls[spanTimer]))
	v["core.envelopes_in_per_block"] = ratio(envIn, blocks)
	v["core.msgs_out_per_block"] = ratio(float64(sends), blocks)
	v["core.era_switches"] = float64(lv.totals.eraSwitches)
	v["core.commit_gap_max_ms"] = ms(o.gapMax)
	v["pbft.view_changes"] = float64(lv.totals.viewChanges)
	v["pbft.inflight_mean"] = ratio(float64(inflight), float64(nodeBlks))
	v["runtime.txs_per_block"] = ratio(float64(o.blockTxs), blocks)
	v["runtime.submit_us_p50"] = float64(quantileDur(lv.submitNs, 0.5)) / 1e3
	v["runtime.pool_depth_max"] = float64(poolMax)
	v["runtime.pool_rejected"] = float64(lv.totals.poolRejected)
	v["types.sigcache_hit_share"] = ratio(float64(lv.sigHits), float64(lv.sigHits+lv.sigMisses))

	walAppends := float64(calls[spanWALAppend])
	v["store.wal_appends_per_block"] = ratio(walAppends, blocks)
	v["store.wal_append_us_p50"] = float64(quantileDur(walNs, 0.50)) / 1e3
	v["store.wal_append_us_p99"] = float64(quantileDur(walNs, 0.99)) / 1e3
	v["store.wal_us_per_block"] = ratio(float64(ns[spanWALAppend])/1e3, blocks)
	v["store.blocklog_append_us_p50"] = float64(quantileDur(logNs, 0.50)) / 1e3

	committed := float64(o.committed)
	v["transport.frames_out_per_block"] = ratio(float64(lv.framesOut), blocks)
	v["transport.bytes_out_per_tx"] = ratio(float64(lv.bytesOut), committed)
	v["transport.dropped"] = float64(lv.dropped)
	v["transport.redials"] = float64(lv.redials)
	v["simnet.events_per_wall_s"] = ratio(float64(lv.events), lv.simWallS)
	v["simnet.msgs_per_tx"] = ratio(float64(lv.simMsgs), committed)
	v["simnet.virtual_s_per_wall_s"] = ratio(lv.virtualS, lv.simWallS)

	// CPU attribution: live count x pass unit cost, as a share of the
	// traced window's process CPU. A child layer's cost is subtracted
	// from its caller, so the shares are disjoint; README.md gives the
	// count behind each term.
	cpu := lv.usageAfter.cpu - lv.usageBefore.cpu
	voteIn := envIn - float64(requestIn) // sealed envelopes a node verified
	txsPerBlock := v["runtime.txs_per_block"]
	nodeTxs := float64(nodeBlks) * txsPerBlock // tx applications across nodes
	gcryptoS := float64(lv.sigMisses)*pass["gcrypto.verify_ns"] +
		float64(seals)*pass["gcrypto.sign_ns"] +
		(blocks+float64(nodeBlks))*txsPerBlock*pass["gcrypto.merkle_root_ns_per_tx"]
	consensusS := float64(seals) * max(pass["consensus.seal_ns"]-pass["gcrypto.sign_ns"], 0)
	codecS := 0.0
	if w.kind == tcpOpen || w.kind == tcpClosed {
		// Over sockets every receiver decodes its own copy of an
		// envelope and verifies it once.
		gcryptoS += voteIn * pass["gcrypto.verify_ns"]
		consensusS += voteIn * max(pass["consensus.open_ns"]-pass["gcrypto.verify_ns"], 0)
		codecS = float64(seals)*pass["codec.envelope_encode_ns"] + envIn*pass["codec.envelope_decode_ns"] +
			nodeTxs*pass["codec.block_decode_ns_per_tx"] + blocks*txsPerBlock*pass["codec.block_encode_ns_per_tx"]
	} else {
		// The simulator hands every receiver the sender's own envelope,
		// sealed and therefore already verified: opening it is a memo hit
		// and nothing is encoded or decoded.
		consensusS += voteIn * pass["consensus.open_memo_ns"]
	}
	ledgerS := float64(nodeBlks) * (pass["ledger.validate_us_per_block"] + pass["ledger.addblock_us_per_block"]) * 1e3
	runtimeS := (float64(lv.totals.submitted)+float64(requestIn))*pass["runtime.pool_add_ns"] +
		blocks*pass["runtime.build_block_us"]*1e3 +
		nodeTxs*pass["runtime.pool_mark_committed_ns_per_tx"]
	storeS := walAppends*pass["store.wal_append_nosync_us"]*1e3 +
		float64(calls[spanBlockLogAppend])*txsPerBlock*pass["codec.block_encode_ns_per_tx"]
	shares := []struct {
		name string
		ns   float64
	}{
		{"gcrypto.cpu_share", gcryptoS}, {"consensus.cpu_share", consensusS}, {"codec.cpu_share", codecS},
		{"ledger.cpu_share", ledgerS}, {"runtime.cpu_share", runtimeS}, {"store.cpu_share", storeS},
	}
	rest := 1.0
	for _, s := range shares {
		v[s.name] = ratio(s.ns/1e9, cpu)
		rest -= v[s.name]
	}
	v["bench.cpu_unattributed_share"] = rest

	lag := make([]float64, len(lv.lag))
	for i, d := range lv.lag {
		lag[i] = ms(d)
	}
	v["bench.gen_lag_p99_ms"] = quantile(lag, 0.99)
	v["bench.trace_overhead_share"] = ratio(float64(hookOps)*hookCostNs()/1e9, cpu)
	ktx := committed / 1000
	v["bench.alloc_mb_per_ktx"] = ratio(float64(lv.usageAfter.alloc-lv.usageBefore.alloc)/(1<<20), ktx)
	v["bench.gc_cpu_share"] = ratio(lv.usageAfter.gcCPU-lv.usageBefore.gcCPU, cpu)
	v["bench.peak_heap_mb"] = float64(lv.usageAfter.heapPeak) / (1 << 20)
	v["bench.failed_share"] = ratio(float64(o.failed), float64(o.attempted))
	v["bench.unavail_ms"] = o.unavailMs
	v["bench.commit_p99_ms"] = quantile(o.latMs, 0.99)
	v["bench.samples"] = float64(len(o.latMs))
	return v
}
