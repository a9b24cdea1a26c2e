package telemetry

import (
	"testing"
	"time"

	"repro/internal/smr"
)

// feed pushes points into a fresh WindowFit of the given capacity.
func feed(capacity int, pts []Point) *WindowFit {
	w := NewWindowFit(capacity)
	for _, p := range pts {
		w.Push(p)
	}
	return w
}

// TestWindowFitMatchesBatchFit checks the incremental fit agrees with
// the batch FitPoints on the same window — unbounded, bounded, and
// plateau shapes alike — since the online classifier's verdicts carry
// exactly as much weight as the batch audit's.
func TestWindowFitMatchesBatchFit(t *testing.T) {
	budget := Budget{Threads: 2, Threshold: 16}
	shapes := map[string]func(i int) uint64{
		"unbounded": func(i int) uint64 { return uint64(i) * 100 },
		"bounded":   func(i int) uint64 { return uint64(4 + i%7) },
		"plateau":   func(i int) uint64 { return uint64(budget.robustPlateau())*4 + uint64(i%3) },
	}
	for name, retired := range shapes {
		pts := synth(20, 100, retired)
		batch := FitPoints(pts, budget)
		win := feed(len(pts), pts).Fit(budget)
		if win != batch {
			t.Errorf("%s: window fit %+v != batch fit %+v", name, win, batch)
		}
	}
}

// TestWindowFitSlides checks eviction: after pushing 2×capacity points
// the fit must equal the batch fit of the last capacity points — sums
// subtracted exactly, the peak deque following the window.
func TestWindowFitSlides(t *testing.T) {
	budget := Budget{Threads: 2, Threshold: 16}
	// An early spike the window must forget once it slides past.
	retired := func(i int) uint64 {
		if i == 3 {
			return 100000
		}
		return uint64(5 + i%4)
	}
	pts := synth(40, 100, retired)
	w := feed(20, pts)
	if w.Len() != 20 {
		t.Fatalf("window len = %d, want 20", w.Len())
	}
	got := w.Fit(budget)
	want := FitPoints(pts[20:], budget)
	if got != want {
		t.Fatalf("slid window fit %+v != batch fit of tail %+v", got, want)
	}
	if got.PeakRetired == 100000 {
		t.Fatal("evicted spike still reported as the window peak")
	}
}

// TestWindowFitEmptyWindow checks the degenerate no-data case: zero
// samples, bounded growth, and a verdict that refuses to conclude.
func TestWindowFitEmptyWindow(t *testing.T) {
	w := NewWindowFit(8)
	f := w.Fit(Budget{Threads: 1, Threshold: 16})
	if f.Samples != 0 || f.Growth != GrowthBounded || f.Ops != 0 {
		t.Fatalf("empty window fit = %+v", f)
	}
	v := NewVerdict("ebr", smr.NotRobust, f)
	if !v.Inconclusive() {
		t.Fatalf("empty window verdict = %s, want inconclusive", v.Outcome)
	}
	// Capacity 0 must clamp, not panic.
	if NewWindowFit(0).Fit(Budget{}).Samples != 0 {
		t.Fatal("zero-capacity window misbehaved")
	}
}

// TestWindowFitSingleTick checks a one-point window: no ops progress, no
// slope, inconclusive verdict.
func TestWindowFitSingleTick(t *testing.T) {
	w := feed(8, []Point{{Ops: 500, Retired: 40, MaxActive: 100}})
	f := w.Fit(Budget{Threads: 2, Threshold: 16})
	if f.Samples != 1 || f.Ops != 0 || f.Slope != 0 {
		t.Fatalf("single-tick fit = %+v", f)
	}
	if v := NewVerdict("hp", smr.Robust, f); !v.Inconclusive() {
		t.Fatalf("single-tick verdict = %s, want inconclusive", v.Outcome)
	}
}

// TestWindowFitConstantSeries checks a flat, progress-free series (a
// stalled or idle domain): the degenerate determinant must yield slope 0
// (not NaN), and identical Ops across the window means inconclusive, not
// a fabricated class.
func TestWindowFitConstantSeries(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{Ops: 1000, Retired: 50}
	}
	f := feed(10, pts).Fit(Budget{Threads: 2, Threshold: 16})
	if f.Slope != 0 {
		t.Fatalf("constant series slope = %v, want 0", f.Slope)
	}
	if f.Plateau != 50 || f.PeakRetired != 50 {
		t.Fatalf("constant series plateau = %v peak = %d", f.Plateau, f.PeakRetired)
	}
	if f.Ops != 0 {
		t.Fatalf("constant series ops progress = %d, want 0", f.Ops)
	}
	if v := NewVerdict("ebr", smr.NotRobust, f); !v.Inconclusive() {
		t.Fatalf("progress-free verdict = %s, want inconclusive", v.Outcome)
	}
}

// TestWindowFitResetsOnOpsRegression checks the online restart
// semantics: a migrated or reopened domain's fresh counters reset the
// window, and the fit describes only the new incarnation.
func TestWindowFitResetsOnOpsRegression(t *testing.T) {
	w := NewWindowFit(64)
	for _, p := range synth(20, 100, func(i int) uint64 { return uint64(i) * 100 }) {
		w.Push(p)
	}
	if w.resets != 0 {
		t.Fatalf("resets before regression = %d", w.resets)
	}
	// The new incarnation: counters restart near zero and stay flat.
	for i := 0; i < 10; i++ {
		w.Push(Point{Ops: uint64(i) * 50, Retired: 3})
	}
	if w.resets != 1 {
		t.Fatalf("resets after regression = %d, want 1", w.resets)
	}
	if w.Len() != 10 {
		t.Fatalf("window len after reset = %d, want 10", w.Len())
	}
	f := w.Fit(Budget{Threads: 2, Threshold: 16})
	if f.Growth != GrowthBounded {
		t.Fatalf("post-reset growth = %v (plateau %v), want bounded", f.Growth, f.Plateau)
	}
}

// TestMonitorEmitsMidRunVerdicts drives the full online path: sampler
// hook → monitor window → live verdict, then a SetDomain rebind after a
// simulated migration.
func TestMonitorEmitsMidRunVerdicts(t *testing.T) {
	budget := Budget{Threads: 2, Threshold: 16}
	m := NewMonitor(nil, []Domain{
		{Scheme: "ebr", Declared: smr.NotRobust, Budget: budget},
		{Scheme: "hp", Declared: smr.Robust, Budget: budget},
	})
	if len(m.domains) != 2 {
		t.Fatalf("domains = %d", len(m.domains))
	}
	// Mid-run: the ebr domain grows unbounded, the hp domain stays flat.
	for i := 0; i < 20; i++ {
		el := time.Duration(i) * time.Millisecond
		m.Observe(0, Point{Elapsed: el, Ops: uint64(i) * 100, Retired: uint64(i) * 100})
		m.Observe(1, Point{Elapsed: el, Ops: uint64(i) * 100, Retired: uint64(4 + i%5)})
	}
	v0, v1 := m.Verdict(0), m.Verdict(1)
	if v0.Audited != "not-robust" || v0.Outcome != "confirmed" {
		t.Fatalf("ebr mid-run verdict = %s/%s", v0.Audited, v0.Outcome)
	}
	if v1.Audited != "robust" || v1.Outcome != "confirmed" {
		t.Fatalf("hp mid-run verdict = %s/%s", v1.Audited, v1.Outcome)
	}
	// Migration: domain 0 rebinds to ibr and its evidence restarts.
	m.SetDomain(0, "ibr", smr.WeaklyRobust)
	if got := m.Verdict(0); !got.Inconclusive() || got.Scheme != "ibr" {
		t.Fatalf("post-rebind verdict = %+v, want inconclusive ibr", got)
	}
	if r := m.fits[0].resets; r != 1 {
		t.Fatalf("restarts = %d, want 1", r)
	}
	// The new incarnation's flat telemetry earns ibr a "stronger".
	for i := 0; i < 20; i++ {
		m.Observe(0, Point{Ops: uint64(i) * 100, Retired: uint64(2 + i%3)})
	}
	if got := m.Verdict(0); got.Audited != "robust" || got.Outcome != "stronger" {
		t.Fatalf("post-migration verdict = %s/%s", got.Audited, got.Outcome)
	}
	if vs := m.Verdicts(); len(vs) != 2 {
		t.Fatalf("verdicts = %d", len(vs))
	}
	// Out-of-range domains are ignored, not panics.
	m.Observe(9, Point{})
	if v := m.Verdict(9); v.Scheme != "" {
		t.Fatalf("out-of-range verdict = %+v", v)
	}
}
