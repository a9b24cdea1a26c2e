package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {0.991, 100}, {1, 100}, {0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	// No bucketing: two samples 1 % apart stay 1 % apart.
	if got := percentile([]float64{100, 101}, 1); got != 101 {
		t.Errorf("got %v, want the sample itself", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.9}, {20, 0.5}, {5, 0.5}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	q := quantiles([]float64{5, 1, 4, 2, 3}, 0.25, 0.5, 0.75, 0.1, 1)
	if want := []float64{2, 3, 4, 1.4, 5}; !slices.Equal(q, want) {
		t.Errorf("quantiles = %v, want %v", q, want)
	}
	q = quantiles([]float64{1, 2}, 0.25, 0.5, 0.75)
	if want := []float64{1.25, 1.5, 1.75}; !slices.Equal(q, want) {
		t.Errorf("quantiles of two = %v, want %v", q, want)
	}
	if m := median([]float64{9}); m != 9 {
		t.Errorf("median of one = %v", m)
	}
}

func TestWindowStatsCutsAtMarks(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	// Two warm-up samples, then two windows of three requests, two ops each.
	samples := []sample{
		{lat: us(999)}, {lat: us(999)},
		{lat: us(10)}, {lat: us(30)}, {lat: us(20)},
		{lat: us(40)}, {lat: us(60)}, {lat: us(50)},
	}
	marks := []mark{
		{upto: 5, at: time.Second, cpu: 3 * time.Second},
		{upto: 8, at: 3 * time.Second, cpu: 4500 * time.Millisecond},
	}
	ws := windowStats(samples, 2, marks, func(int) int { return 2 }, 2*time.Second)
	if len(ws) != 2 {
		t.Fatalf("%d windows, want 2", len(ws))
	}
	want := []windowStat{
		{Reqs: 3, Ops: 6, OpsPerS: 6, P50us: 20, P99us: 20, CPUusPerOp: 1e6 / 6},
		{Reqs: 3, Ops: 6, OpsPerS: 3, P50us: 50, P99us: 50, CPUusPerOp: 1.5e6 / 6},
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("window %d = %+v, want %+v", i, ws[i], want[i])
		}
	}
}

func TestEndToEndStatIsTheFastSideOfWindowsNotTotalOverElapsed(t *testing.T) {
	// Eight windows, three of them in a stretch the host slowed down:
	// total/elapsed reads 74 ops/s, the fast side reads 100.
	var e e2eResult
	for s := 0; s < 2; s++ {
		sl := sliceResult{SetupS: []float64{0.3, 0.1 * float64(s+1)}, AllocsPerOp: 0.5 + float64(s), HeapInuseMB: 2, PeakRetired: 32}
		for w := 0; w < 4; w++ {
			sl.Windows = append(sl.Windows, windowStat{Reqs: 10, Ops: 100, OpsPerS: 100, P50us: 10, P99us: 20, CPUusPerOp: 1})
		}
		e.slices = append(e.slices, sl)
	}
	for w := 1; w < 4; w++ {
		e.slices[1].Windows[w] = windowStat{Reqs: 3, Ops: 30, OpsPerS: 30, P50us: 33, P99us: 70, CPUusPerOp: 1.2}
	}
	st := e.stats()
	if got := st["ops_per_s"]; got.Value != 100 || got.Median != 100 || got.Q1 >= 100 || got.N != 8 {
		t.Errorf("ops_per_s = %+v, want 100 from the fast side of 8 windows", got)
	}
	if got := st["req_p50_us"].Value; got != 10 {
		t.Errorf("req_p50_us = %v, want 10", got)
	}
	if got := st["req_p99_us"].Value; got != 20 {
		t.Errorf("req_p99_us = %v, want 20", got)
	}
	if got := st["cpu_us_per_op"].Value; got != 1 {
		t.Errorf("cpu_us_per_op = %v, want 1", got)
	}
	if got := st["setup_s"]; math.Abs(got.Value-0.1075) > 1e-12 || got.N != 4 {
		t.Errorf("setup_s = %+v, want 0.1075 from the fast side of 4 set-ups", got)
	}
	if got := st["allocs_per_op"]; got.Value != 1 || got.N != 2 {
		t.Errorf("allocs_per_op = %+v, want median 1 over 2 slices", got)
	}
	if got := e.reqCount(); got != 59 {
		t.Errorf("reqCount = %d, want 59", got)
	}
}

func TestSelfTimesSubtractPerRequest(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	parent := []time.Duration{us(10), us(20), us(30)}
	child := []time.Duration{us(4), us(15), us(31)}
	got := selfTimes(parent, child)
	want := []float64{6, 5, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The median of per-request differences, not the difference of medians.
	if m := median(got); m != 5 {
		t.Errorf("median self = %v, want 5", m)
	}
}
