package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

const (
	tcpClients = 64
	// drainCap bounds the wait for offered transactions still in flight
	// when the load ends; one not committed by then has failed.
	drainCap = 5 * time.Second
	// satProvision is the closed loop's pre-signed budget in tx per
	// second of ramp and window; past it the generator signs inline.
	satProvision = 4000
)

// tcpRun is one assembled cluster with its pre-signed load.
type tcpRun struct {
	c       *tcpCluster
	tr      *tracker
	clients []*gcrypto.KeyPair
	txs     []*types.Transaction
	rng     *rand.Rand
	dir     string // durable store directory ("" when in memory)
}

// sign builds and signs offered transaction k with the given payload
// entropy.
func (r *tcpRun) sign(k int, entropy uint64) *types.Transaction {
	c := k % tcpClients
	var payload [12]byte
	binary.LittleEndian.PutUint32(payload[:4], uint32(k))
	binary.LittleEndian.PutUint64(payload[4:], entropy)
	return clientTx(r.clients[c], c, uint64(k/tcpClients+1), payload[:], r.c.epoch.Add(time.Duration(k+1)*time.Millisecond))
}

// setupTCP builds the cluster and its keys, pre-signs count
// transactions, and warms the mesh until one warm-up transaction per
// node has committed. Everything it does is what setup_s times.
func setupTCP(w workload, seed int64, count int, trace *tracer, scratch string) (r *tcpRun, err error) {
	r = &tcpRun{tr: newTracker(count + w.nodes), rng: rand.New(rand.NewSource(seed))}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if w.durable {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		if r.dir, err = os.MkdirTemp(scratch, "durable-"); err != nil {
			return nil, err
		}
	}
	if r.c, err = newTCPCluster(tcpOptions{n: w.nodes, durable: r.dir, trace: trace, hook: r.tr.observe}); err != nil {
		return nil, err
	}
	r.clients = make([]*gcrypto.KeyPair, tcpClients+w.nodes)
	for i := range r.clients {
		r.clients[i] = seededKey(seed, i)
	}
	// Payload entropy comes from the one seeded stream, in order; only
	// the signing fans out over the two cores.
	entropy := make([]uint64, count)
	for k := range entropy {
		entropy[k] = r.rng.Uint64()
	}
	r.txs = make([]*types.Transaction, count)
	var wg sync.WaitGroup
	const signers = 2
	for s := 0; s < signers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := s; k < count; k += signers {
				r.txs[k] = r.sign(k, entropy[k])
			}
		}(s)
	}
	wg.Wait()
	for _, tx := range r.txs {
		r.tr.offer(tx)
	}
	// Connections dial lazily on first send: one warm-up transaction
	// entering at every node takes the n^2 dial-and-hello burst and the
	// first slow round out of the measured window.
	warm := make([]*types.Transaction, w.nodes)
	for i := range warm {
		warm[i] = clientTx(r.clients[tcpClients+i], tcpClients+i, 1, []byte{0xFF, byte(i)}, r.c.epoch.Add(time.Microsecond))
		r.tr.warmup(warm[i])
		if err := r.c.submit(i, warm[i]); err != nil {
			return nil, fmt.Errorf("warm-up submit at node %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.tr.warmCommitted() < len(warm) {
		if time.Now().After(deadline) {
			return nil, errors.New("warm-up did not commit within 10 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return r, nil
}

func (r *tcpRun) close() {
	if r.c != nil {
		r.c.close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// runTCP sets up, drives the load, drains, and checks the outputs.
func runTCP(w workload, seed int64, seconds float64, trace *tracer, scratch string) (*outcome, error) {
	window := time.Duration(seconds * float64(time.Second))
	count := int(float64(w.rate) * seconds)
	if w.kind == tcpClosed {
		count = int(satProvision * (seconds + closedLoopRamp.Seconds()))
	}
	out := newOutcome()
	t0 := time.Now()
	r, err := setupTCP(w, seed, count, trace, scratch)
	if err != nil {
		return nil, err
	}
	out.setups = append(out.setups, time.Since(t0).Seconds())
	defer r.close()
	c, tr := r.c, r.tr
	clock := func() time.Duration { return time.Since(c.epoch) }

	// snap reads every counter the window is bracketed by.
	type counters struct {
		usage
		frames, bytes int64
		hits, misses  uint64
	}
	snap := func() (s counters) {
		s.usage = sampleUsage(trace != nil)
		s.frames, s.bytes, _, _ = c.transportTotals()
		s.hits, s.misses = sigCacheStats()
		return s
	}
	var before, after counters
	var winStart, winEnd time.Duration
	submitNs := make([]int64, 0, count) // one entry per submission made
	submit := func(k int, due time.Duration) {
		var tx *types.Transaction
		if k < len(r.txs) {
			tx = r.txs[k]
		} else {
			tx = r.sign(k, r.rng.Uint64())
			tr.offer(tx)
			out.signedInline++
		}
		tr.setDue(k, due)
		t0 := time.Now()
		if err := c.submit(k%w.nodes, tx); err != nil {
			tr.refuse(k)
		}
		t1 := time.Now()
		submitNs = append(submitNs, int64(t1.Sub(t0)))
		if trace != nil {
			trace.genSpan(spanSubmit, uint64(k), trace.since(c.epoch.Add(due)), trace.since(t1))
		}
	}

	var lag []time.Duration
	var sent int
	switch w.kind {
	case tcpOpen:
		interval := time.Second / time.Duration(w.rate)
		winStart = clock() + 20*time.Millisecond
		tr.measureGapsFrom(winStart)
		before = snap()
		lag = openLoop(clock, time.Sleep, winStart, interval, count, submit)
		sent = count
		winEnd = winStart + time.Duration(count)*interval
	case tcpClosed:
		wake := make(chan struct{}, 1)
		tr.onCommit = func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
		rampStart := clock()
		winStart = rampStart + closedLoopRamp
		winEnd = winStart + window
		tr.measureGapsFrom(winStart)
		started := false
		sent = closedLoop(clock, winEnd, w.outstanding,
			func() int { return len(submitNs) - int(tr.committedN.Load()) }, wake,
			func(k int, at time.Duration) {
				if !started && at >= winStart {
					started = true
					before = snap()
				}
				submit(k, at)
			})
		// The window's counters stop here; the drain below is only to
		// learn the fate of what is still in flight.
		after = snap()
	}
	deadline := time.Now().Add(drainCap)
	for int(tr.committedN.Load()) < sent && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if w.kind == tcpOpen {
		after = snap()
	}
	totals := c.totals()
	_, _, dropped, redials := c.transportTotals()
	c.close()

	tr.collect(out, sent, winStart, winEnd, w.kind == tcpClosed)
	out.cpu = after.cpu - before.cpu
	out.netKB = float64(after.bytes-before.bytes) / 1024
	for i := 0; i < c.n; i++ {
		blocks, err := c.chainOf(i)
		if err != nil {
			out.violate("node %d commit error: %v", i, err)
		}
		out.chains = append(out.chains, blocks)
	}
	out.checkChains(tr)
	out.genesis = c.genesis()

	if trace != nil {
		tr.txSpans(trace, c.epoch)
		lv := out.live
		lv.usageBefore, lv.usageAfter = before.usage, after.usage
		lv.lag = lag
		lv.submitNs = submitNs
		lv.framesOut = after.frames - before.frames
		lv.bytesOut = after.bytes - before.bytes
		lv.dropped, lv.redials = dropped, redials
		lv.sigHits, lv.sigMisses = after.hits-before.hits, after.misses-before.misses
		lv.totals = totals
		lv.totals.viewChanges = c.viewChanges()
	}
	return out, nil
}
