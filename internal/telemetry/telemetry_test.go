package telemetry

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/smr"
)

func TestSeriesRingOrder(t *testing.T) {
	s := NewSeries(4)
	for i := 0; i < 6; i++ {
		s.Push(Point{Ops: uint64(i)})
	}
	pts := s.Points()
	if len(pts) != 4 {
		t.Fatalf("len = %d, want 4", len(pts))
	}
	for i, p := range pts {
		if want := uint64(i + 2); p.Ops != want {
			t.Fatalf("point %d has ops %d, want %d (oldest-first after wrap)", i, p.Ops, want)
		}
	}
	if last := pts[len(pts)-1]; last.Ops != 5 {
		t.Fatalf("last = %v", last)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries(2)
	if len(s.Points()) != 0 {
		t.Fatal("fresh series must be empty")
	}
}

func TestSamplerCollects(t *testing.T) {
	var ops atomic.Uint64
	probe := func() []Point {
		v := ops.Add(10)
		return []Point{
			{Ops: v, Retired: v / 2},
			{Ops: v, Retired: 1},
		}
	}
	s := NewSampler(Config{Interval: time.Millisecond, Capacity: 64}, probe)
	if len(s.series) != 2 {
		t.Fatalf("domains = %d, want 2", len(s.series))
	}
	s.Start()
	time.Sleep(10 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	for d := 0; d < 2; d++ {
		pts := s.Series(d).Points()
		// Start and Stop each force a sample, so ≥ 2 regardless of tick
		// timing.
		if len(pts) < 2 {
			t.Fatalf("domain %d: %d points, want at least 2", d, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Ops < pts[i-1].Ops {
				t.Fatalf("domain %d: ops regressed at %d", d, i)
			}
			if pts[i].Elapsed < pts[i-1].Elapsed {
				t.Fatalf("domain %d: elapsed regressed at %d", d, i)
			}
		}
	}
}

// synth builds a series of n points with the given backlog function.
func synth(n int, opsPer uint64, retired func(i int) uint64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Elapsed: time.Duration(i) * time.Millisecond,
			Ops:     uint64(i) * opsPer,
			Retired: retired(i),
		}
	}
	return pts
}

func TestFitUnbounded(t *testing.T) {
	// Backlog tracks ops one-for-one: the EBR-under-stall shape.
	pts := synth(20, 100, func(i int) uint64 { return uint64(i) * 100 })
	f := FitPoints(pts, Budget{Threads: 2, Threshold: 16})
	if f.Growth != GrowthUnbounded {
		t.Fatalf("growth = %v (slope %f), want unbounded", f.Growth, f.Slope)
	}
	if f.Slope < 0.9 || f.Slope > 1.1 {
		t.Fatalf("slope = %f, want ≈1", f.Slope)
	}
}

func TestFitBounded(t *testing.T) {
	// Backlog oscillates under the scan threshold: the HP shape.
	pts := synth(20, 100, func(i int) uint64 { return uint64(4 + i%7) })
	f := FitPoints(pts, Budget{Threads: 2, Threshold: 16})
	if f.Growth != GrowthBounded {
		t.Fatalf("growth = %v (plateau %f), want bounded", f.Growth, f.Plateau)
	}
}

func TestFitLinearThreads(t *testing.T) {
	// Backlog plateaus far above the per-thread budget: bounded, but on
	// the max_active × threads scale.
	budget := Budget{Threads: 2, Threshold: 16}
	high := uint64(budget.robustPlateau()) * 4
	pts := synth(20, 100, func(i int) uint64 { return high + uint64(i%3) })
	f := FitPoints(pts, budget)
	if f.Growth != GrowthLinearThreads {
		t.Fatalf("growth = %v (plateau %f), want linear-in-threads", f.Growth, f.Plateau)
	}
}

func TestFitWindowTrims(t *testing.T) {
	// Unbounded before the cut, flat after: the window must see only the
	// flat tail.
	pts := synth(20, 100, func(i int) uint64 {
		if i < 10 {
			return uint64(i) * 100
		}
		return 5
	})
	f := FitWindow(pts, 10*time.Millisecond, Budget{Threads: 2, Threshold: 16})
	if f.Samples != 10 {
		t.Fatalf("window samples = %d, want 10", f.Samples)
	}
	if f.Growth != GrowthBounded {
		t.Fatalf("growth = %v, want bounded after trim", f.Growth)
	}
}

func TestAuditOutcomes(t *testing.T) {
	budget := Budget{Threads: 2, Threshold: 16}
	grow := synth(20, 100, func(i int) uint64 { return uint64(i) * 100 })
	flat := synth(20, 100, func(i int) uint64 { return uint64(6 + i%5) })

	cases := []struct {
		name     string
		declared smr.RobustnessClass
		pts      []Point
		want     Consistency
	}{
		{"ebr-confirmed", smr.NotRobust, grow, Confirmed},
		{"hp-confirmed", smr.Robust, flat, Confirmed},
		{"claims-robust-but-grows", smr.Robust, grow, Violated},
		{"weak-looks-robust", smr.WeaklyRobust, flat, Stronger},
	}
	for _, c := range cases {
		v := Audit(c.name, c.declared, c.pts, 0, budget)
		if v.outcome != c.want {
			t.Errorf("%s: outcome = %v, want %v (audited %s)", c.name, v.outcome, c.want, v.Audited)
		}
		if c.want == Violated && v.Consistent() {
			t.Errorf("%s: Consistent() must be false on violation", c.name)
		}
	}
}

func TestAuditInconclusive(t *testing.T) {
	pts := synth(2, 100, func(i int) uint64 { return 1 })
	v := Audit("tiny", smr.Robust, pts, 0, Budget{Threads: 1, Threshold: 16})
	if v.outcome != Inconclusive {
		t.Fatalf("outcome = %v, want inconclusive on %d samples", v.outcome, len(pts))
	}
	if !v.Consistent() {
		t.Fatal("inconclusive must not count as a violation")
	}
}

func TestFitRiseThenPlateauIsNotUnbounded(t *testing.T) {
	// The weakly-robust shape right after a fault lands: a fast climb to
	// a high plateau, then flat. The climb tilts the least-squares slope,
	// but the flat tail must keep this out of "unbounded".
	budget := Budget{Threads: 2, Threshold: 16}
	high := uint64(budget.robustPlateau()) * 5
	pts := synth(20, 100, func(i int) uint64 {
		if i < 5 {
			return uint64(i) * high / 5
		}
		return high
	})
	f := FitPoints(pts, budget)
	if f.Growth == GrowthUnbounded {
		t.Fatalf("onset ramp classified unbounded (slope %f)", f.Slope)
	}
	if f.Growth != GrowthLinearThreads {
		t.Fatalf("growth = %v (plateau %f), want linear-in-threads", f.Growth, f.Plateau)
	}
}

func TestFitTrimsAtCounterReset(t *testing.T) {
	// A churned shard reopens with fresh counters mid-window: the points
	// after the Ops regression belong to a different shard incarnation
	// and must not poison the fit (Ops=0 would read as "no progress" →
	// inconclusive).
	budget := Budget{Threads: 2, Threshold: 16}
	pts := synth(20, 100, func(i int) uint64 { return uint64(i) * 100 })
	pts = append(pts, Point{Elapsed: 21 * time.Millisecond, Ops: 3, Retired: 0})
	f := FitPoints(pts, budget)
	if f.Samples != 20 {
		t.Fatalf("samples = %d, want 20 (post-reset point trimmed)", f.Samples)
	}
	if f.Growth != GrowthUnbounded || f.Ops == 0 {
		t.Fatalf("growth = %v ops = %d, want unbounded fit of the pre-reset incarnation", f.Growth, f.Ops)
	}
}

func TestFitUnboundedRequiresMaxActiveScale(t *testing.T) {
	// A backlog that climbs through the window but stays on the
	// max_active scale is a weakly-robust plateau still forming (short
	// window, slow machine) — it must not read as unbounded. The same
	// curve far past that scale must.
	budget := Budget{Threads: 2, Threshold: 16}
	onScale := synth(20, 100, func(i int) uint64 { return uint64(i) * 20 })
	for i := range onScale {
		onScale[i].MaxActive = 400 // growth tops out at 380 < 2×max_active
	}
	if f := FitPoints(onScale, budget); f.Growth == GrowthUnbounded {
		t.Fatalf("growth on the max_active scale audited unbounded (slope %f)", f.Slope)
	}
	pastScale := synth(20, 100, func(i int) uint64 { return uint64(i) * 100 })
	for i := range pastScale {
		pastScale[i].MaxActive = 400 // growth reaches 1900 > 2×max_active
	}
	if f := FitPoints(pastScale, budget); f.Growth != GrowthUnbounded {
		t.Fatalf("growth past the max_active scale audited %v", f.Growth)
	}
}
