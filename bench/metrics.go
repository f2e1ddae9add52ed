package main

import "hash/fnv"

// metricDef names one metric. The lists below are the code's side of
// BENCHMARK.json; bench_test.go checks the two agree.
type metricDef struct {
	name string
	unit string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse; README.md derives each from the measured
	// A/A spreads. 0 on metrics that carry none.
	bound float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the driver's contract), so each is defined on
// both loops and both substrates; the README gives the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"commit_p50_ms", "ms", 0.20},
	{"commit_p95_ms", "ms", 0.25},
	{"committed_tps", "tx/s", 0.20},
	{"cpu_s_per_ktx", "s", 0.20},
	{"net_kb_per_tx", "KB", 0.15},
}

// printedOnly are end-to-end too, but carry no bound: the untraced run
// prints them on the lines before its result line. failed_share is 0
// on every tcp-* workload and unavail_ms exists on sim-c7-crash alone,
// while a bound is a share of a median that must never be 0; the
// result line's failed count is what gates lost transactions. p99
// moves too much from run to run to gate.
var printedOnly = []metricDef{
	{name: "failed_share", unit: "ratio"},
	{name: "unavail_ms", unit: "ms"},
	{name: "commit_p99_ms", unit: "ms"},
	{name: "samples", unit: "count"},
}

// endToEndValues derives the end-to-end and printed-only metrics from
// an outcome. Latency quantiles are over every committed measured
// transaction of the run.
func endToEndValues(o *outcome) map[string]float64 {
	v := map[string]float64{
		"setup_s":       medianOf(o.setups),
		"commit_p50_ms": quantile(o.latMs, 0.50),
		"commit_p95_ms": quantile(o.latMs, 0.95),
		"commit_p99_ms": quantile(o.latMs, 0.99),
		"samples":       float64(len(o.latMs)),
		"failed_share":  ratio(float64(o.failed), float64(o.attempted)),
	}
	if o.unavailMs > 0 {
		v["unavail_ms"] = o.unavailMs
	}
	if o.windowS > 0 {
		v["committed_tps"] = float64(o.committed) / o.windowS
	}
	if o.committed > 0 {
		v["cpu_s_per_ktx"] = o.cpu / (float64(o.committed) / 1000)
		v["net_kb_per_tx"] = o.netKB / float64(o.committed)
	}
	return v
}

// subSeed derives the seed of simulator repetition i from the
// workload seed.
func subSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	h := fnv.New64a()
	var b [16]byte
	for j := 0; j < 8; j++ {
		b[j] = byte(seed >> (8 * j))
		b[8+j] = byte(i >> (8 * j))
	}
	h.Write(b[:])
	return int64(h.Sum64() >> 1)
}
