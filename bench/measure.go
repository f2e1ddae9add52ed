package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear
// interpolation; 0 when xs is empty. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// medianOf returns the median of xs without reordering it.
func medianOf(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func quantileDur(ds []int64, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// usage is a point on the process's CPU, allocation and GC counters.
type usage struct {
	cpu      float64
	gcCPU    float64
	alloc    uint64
	heapPeak uint64
}

var gcSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// sampleUsage reads the process CPU, and for a traced run (whose
// per-layer metrics need them) the allocation and GC counters too;
// reading those stops the world, so untraced runs leave them out.
func sampleUsage(traced bool) usage {
	if !traced {
		return usage{cpu: cpuSeconds()}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	metrics.Read(gcSample)
	u := usage{cpu: cpuSeconds(), alloc: m.TotalAlloc, heapPeak: m.HeapSys}
	if gcSample[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gcSample[0].Value.Float64()
	}
	return u
}
