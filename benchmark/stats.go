package main

import (
	"math"
	"sort"
	"time"
)

// Exact order statistics over raw samples. The repository's hist.Latency
// buckets by 1/16 octave, which moves a p50 in 4–6 % steps — half of a
// 10 % regression bound — so the benchmark keeps every request's latency
// and sorts.

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailQuantile is the highest percentile, capped at p99, that still has
// at least ten samples beyond it in a window of n samples; tighter tails
// than that are one outlier's opinion.
func tailQuantile(n int) float64 {
	q := 1 - 10/float64(n)
	switch {
	case q > 0.99:
		return 0.99
	case q < 0.5:
		return 0.5
	}
	return q
}

// quantiles returns the qs-quantiles of vs (any order, non-empty),
// interpolating linearly between ranks.
func quantiles(vs []float64, qs ...float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			out[i] = s[len(s)-1]
			continue
		}
		out[i] = s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return out
}

func median(vs []float64) float64 { return quantiles(vs, 0.5)[0] }

// sample is one request as the client loop saw it.
type sample struct {
	lat   time.Duration // span around the client call only
	check uint64        // folded result, compared with the oracle afterwards
}

// mark closes one measurement window: the index one past its last
// sample, when that sample completed (as an offset from the phase start),
// and the process CPU time consumed by then.
type mark struct {
	upto int
	at   time.Duration
	cpu  time.Duration
}

// windowStat is one measurement window's statistics.
type windowStat struct {
	Reqs       int     `json:"reqs"`
	Ops        int     `json:"ops"`
	OpsPerS    float64 `json:"ops_per_s"`
	P50us      float64 `json:"p50_us"`
	P99us      float64 `json:"p99_us"`
	CPUusPerOp float64 `json:"cpu_us_per_op"`
}

// windowStats cuts samples[from:] into the windows the marks closed.
// weight(i) is the operation count of sample i's request and cpu0 the CPU
// clock when the phase started. A window runs from the previous window's
// last completion to its own, so its throughput is ops over exactly the
// time they took.
func windowStats(samples []sample, from int, marks []mark, weight func(i int) int, cpu0 time.Duration) []windowStat {
	out := make([]windowStat, 0, len(marks))
	var lats []float64
	var at time.Duration
	for _, m := range marks {
		w := windowStat{Reqs: m.upto - from}
		lats = lats[:0]
		for i := from; i < m.upto; i++ {
			w.Ops += weight(i)
			lats = append(lats, float64(samples[i].lat)/1e3)
		}
		if w.Reqs > 0 {
			sort.Float64s(lats)
			w.OpsPerS = float64(w.Ops) / (m.at - at).Seconds()
			w.P50us = percentile(lats, 0.5)
			w.P99us = percentile(lats, tailQuantile(len(lats)))
			w.CPUusPerOp = float64(m.cpu-cpu0) / 1e3 / float64(w.Ops)
		}
		out = append(out, w)
		from, at, cpu0 = m.upto, m.at, m.cpu
	}
	return out
}

// selfTimes subtracts, request by request, the child rung's span from
// its parent's: what the parent layer itself spent on that request.
func selfTimes(parent, child []time.Duration) []float64 {
	n := len(parent)
	if len(child) < n {
		n = len(child)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(parent[i]-child[i]) / 1e3
	}
	return out
}
