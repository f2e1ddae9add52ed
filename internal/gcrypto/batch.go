package gcrypto

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch verification: the consensus hot path accumulates signatures in
// slices (a block's transactions, a sync response's certificates, a
// backlog of votes) and the serial loop used to check them one by one
// on the consensus goroutine. VerifyBatch fans the checks out over a
// persistent worker pool sized to the machine, while returning
// per-index results so callers keep byte-exact accept/reject semantics
// with the serial path: VerifyBatch(items)[i] is always identical to
// Verify(items[i]...).

// BatchItem is one signature check: the same four arguments Verify
// takes.
type BatchItem struct {
	Pub  PublicKey
	Addr Address
	Msg  []byte
	Sig  []byte
}

// minParallelBatch is the smallest batch worth fanning out; below it
// the scheduling overhead exceeds the ~50µs an ed25519 check costs.
const minParallelBatch = 4

// BatchWorkers reports the verification pool width: GOMAXPROCS.
func BatchWorkers() int { return runtime.GOMAXPROCS(0) }

// batchJob is one contiguous slice of a batch assigned to a worker.
type batchJob struct {
	items []BatchItem
	errs  []error
	next  *atomic.Int64 // shared work-stealing cursor over the batch
	wg    *sync.WaitGroup
}

// verifyPool is the shared worker pool. Workers are started lazily on
// the first parallel batch and live for the process lifetime; an idle
// pool costs only parked goroutines.
var (
	poolOnce sync.Once
	poolJobs chan batchJob
)

func startPool() {
	poolJobs = make(chan batchJob)
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		go func() {
			for job := range poolJobs {
				runBatchJob(job)
			}
		}()
	}
}

func runBatchJob(job batchJob) {
	defer job.wg.Done()
	for {
		i := int(job.next.Add(1)) - 1
		if i >= len(job.items) {
			return
		}
		it := &job.items[i]
		job.errs[i] = Verify(it.Pub, it.Addr, it.Msg, it.Sig)
	}
}

// VerifyBatch verifies every item and returns one error slot per index
// (nil = accepted). The result is element-for-element identical to
// calling Verify serially; only the wall-clock cost changes. Small
// batches, and every batch when GOMAXPROCS is 1, bypass the pool.
func VerifyBatch(items []BatchItem) []error {
	errs := make([]error, len(items))
	workers := BatchWorkers()
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 || len(items) < minParallelBatch {
		for i := range items {
			errs[i] = Verify(items[i].Pub, items[i].Addr, items[i].Msg, items[i].Sig)
		}
		return errs
	}
	poolOnce.Do(startPool)
	var next atomic.Int64
	var wg sync.WaitGroup
	job := batchJob{items: items, errs: errs, next: &next, wg: &wg}
	// Hand the same work-stealing job to `workers` pool slots; if the
	// pool is busy (another batch in flight) the submitting goroutine
	// steals work itself so a batch can never deadlock behind another.
	for i := 0; i < workers-1; i++ {
		wg.Add(1)
		select {
		case poolJobs <- job:
		default:
			wg.Done()
		}
	}
	// The caller always participates: it is already running and hot.
	wg.Add(1)
	runBatchJob(job)
	wg.Wait()
	return errs
}

// FirstBatchError scans per-index results and returns the lowest
// failing index and its error, or (-1, nil) when all passed — the
// shape serial loops that stop at the first failure need.
func FirstBatchError(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}
