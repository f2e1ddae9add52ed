package main

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"time"

	"gpbft/internal/types"
)

const (
	// simWarmup precedes the load window: start-up traffic and the first
	// location reports commit here, as in harness.MeasureLatencyRun.
	simWarmup = time.Second
	// simDrain is how long after the load window the event loop may keep
	// running; a transaction not committed by then has failed.
	simDrain = 40 * time.Second
)

// simRun is one simulator repetition in progress.
type simRun struct {
	w   workload
	sc  *simCluster
	tr  *tracker
	rng *rand.Rand

	offered  int
	crashed  int // node index, -1 while everyone is up
	crashAt  time.Duration
	submitNs []int64
}

func (r *simRun) payload(k int) []byte {
	var p [12]byte
	binary.LittleEndian.PutUint32(p[:4], uint32(k))
	binary.LittleEndian.PutUint64(p[4:], r.rng.Uint64())
	return p[:]
}

// offer signs transaction k of node from, due at the given virtual
// time, and schedules its one submission: through from itself, or the
// next node when from has been crashed. Nothing is ever resubmitted; a
// transaction the protocol loses stays lost and counts as failed.
func (r *simRun) offer(from int, due time.Duration) {
	k := r.offered
	r.offered++
	tx := r.sc.nodeTx(from, due, r.payload(k))
	r.tr.offer(tx)
	r.tr.setDue(k, due)
	r.sc.at(due, func(now time.Duration) {
		via := from
		if via == r.crashed {
			via = (via + 1) % r.w.nodes
		}
		t0 := time.Now()
		err := r.sc.submit(via, now, tx)
		r.submitNs = append(r.submitNs, int64(time.Since(t0)))
		if err != nil {
			r.tr.refuse(k)
		}
	})
}

// setupSim builds the cluster, signs and schedules the whole load, and
// runs the warm-up second; it is what setup_s times on sim-*.
func setupSim(w workload, seed int64, window time.Duration, trace *tracer) (*simRun, error) {
	r := &simRun{w: w, rng: rand.New(rand.NewSource(seed)), crashed: -1}
	r.tr = newTracker(4096)
	shape := simShape{nodes: w.nodes}
	if w.kind == simEras {
		shape.eras = true
		shape.maxEndorsers = 40
	}
	sc, err := newSimCluster(seed, shape, trace, r.tr.observe)
	if err != nil {
		return nil, err
	}
	r.sc = sc
	end := simWarmup + window
	switch w.kind {
	case simEras:
		// harness.MeasureLatencyRun: every device uploads its location
		// every 2 s and proposes every 3 s, both staggered by index.
		const reportEvery, proposeEvery = 2 * time.Second, 3 * time.Second
		n := time.Duration(w.nodes)
		for i := 0; i < w.nodes; i++ {
			sc.scheduleReports(i, 50*time.Millisecond+time.Duration(i)*reportEvery/n, reportEvery, int(end/reportEvery))
		}
		for i := 0; i < w.nodes; i++ {
			for at := simWarmup + time.Duration(i)*proposeEvery/n; at < end; at += proposeEvery {
				r.offer(i, at)
			}
		}
	case simCrash:
		interval := time.Second / time.Duration(w.rate)
		total := int(window / interval)
		for k := 0; k < total; k++ {
			r.offer(k%w.nodes, simWarmup+time.Duration(k)*interval)
		}
		r.crashAt = simWarmup + window/3
		sc.at(r.crashAt, func(time.Duration) {
			if p := sc.primaryIndex(); p >= 0 {
				r.crashed = p
				sc.crash(p)
			}
		})
		// The first commit has to come from somewhere: one unmeasured
		// transaction inside the warm-up second.
		warm := sc.nodeTx(0, simWarmup/2, []byte{0xFF})
		r.tr.warmup(warm)
		sc.at(simWarmup/2, func(now time.Duration) { _ = sc.submit(0, now, warm) })
	}
	// Run up to one tick before the first measured transaction is due.
	sc.runTo(simWarmup - time.Millisecond)
	if r.tr.blocks == 0 {
		return nil, errors.New("simulator warm-up committed nothing")
	}
	return r, nil
}

// runSim pools w.reps independent simulator repetitions (one when
// traced). Latencies, traffic and the window are model time and repeat
// exactly for a seed; CPU and set-up are wall clock.
func runSim(w workload, seed int64, seconds float64, trace *tracer) (*outcome, error) {
	window := time.Duration(seconds * simVirtualPerSecond * float64(time.Second))
	reps := w.reps
	if trace != nil {
		reps = 1
	}
	out := newOutcome()
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		r, err := setupSim(w, subSeed(seed, rep), window, trace)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		r.tr.measureGapsFrom(simWarmup)
		kb0, msgs0 := r.sc.traffic()
		hits0, miss0 := sigCacheStats()
		before := sampleUsage(trace != nil)
		wall0 := time.Now()
		events := r.sc.run(simWarmup + window + simDrain)
		wallS := time.Since(wall0).Seconds()
		after := sampleUsage(trace != nil)
		kb1, msgs1 := r.sc.traffic()

		r.tr.collect(out, r.offered, simWarmup, simWarmup+window, false)
		out.cpu += after.cpu - before.cpu
		out.netKB += kb1 - kb0
		if r.crashed >= 0 {
			out.unavailMs = ms(r.tr.firstCommitDueAfter(r.crashAt) - r.crashAt)
		}
		if err := r.sc.agreement(); err != nil {
			out.violate("%v", err)
		}
		chain := r.sc.longestChain()
		out.checkChain(r.tr, chain)
		if rep == reps-1 {
			out.chains = [][]*types.Block{chain}
			out.genesis = r.sc.genesis()
		}
		if trace != nil {
			hits1, miss1 := sigCacheStats()
			lv := out.live
			lv.usageBefore, lv.usageAfter = before, after
			lv.submitNs = r.submitNs
			lv.sigHits, lv.sigMisses = hits1-hits0, miss1-miss0
			lv.totals = r.sc.totals()
			lv.events = events
			lv.simMsgs = msgs1 - msgs0
			lv.virtualS = (r.sc.now() - simWarmup).Seconds()
			lv.simWallS = wallS
		}
	}
	return out, nil
}
