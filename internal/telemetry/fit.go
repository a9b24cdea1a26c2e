package telemetry

import (
	"fmt"
	"math"
	"time"

	"repro/internal/smr"
)

// GrowthClass is the audited shape of a retired-backlog series, the
// empirical counterpart of the robustness taxonomy: unbounded growth is
// what Definition 5.1 forbids, a plateau at the per-thread protection
// budget is what a robust scheme promises, and a plateau far above it —
// on the max_active × threads scale — is the weakly-robust regime of
// Definition 5.2.
type GrowthClass uint8

// Growth classes, ordered from best to worst.
const (
	// GrowthBounded: the backlog plateaus within the per-thread budget.
	GrowthBounded GrowthClass = iota
	// GrowthLinearThreads: the backlog plateaus, but at a level that
	// tracks max_active × threads rather than the per-thread budget.
	GrowthLinearThreads
	// GrowthUnbounded: the backlog keeps growing with operation count.
	GrowthUnbounded
)

// String returns the class name.
func (g GrowthClass) String() string {
	switch g {
	case GrowthBounded:
		return "bounded"
	case GrowthLinearThreads:
		return "linear-in-threads"
	}
	return "unbounded"
}

// Budget is the reference frame a fit is judged against: what "small"
// means for the monitored domain.
type Budget struct {
	// Threads is the domain's executing thread count (shard workers).
	Threads int
	// Threshold is the schemes' retire-list scan threshold: a healthy
	// thread may hold up to ~Threshold retired nodes it has not scanned
	// yet, so the robust plateau is O(Threads × Threshold).
	Threshold int
}

// robustPlateau is the largest backlog plateau still consistent with a
// robust bound: every thread's un-scanned retire list plus a handful of
// protected nodes each, with 2× slack for scan raciness.
func (b Budget) robustPlateau() float64 {
	threads := b.Threads
	if threads <= 0 {
		threads = 1
	}
	threshold := b.Threshold
	if threshold <= 0 {
		threshold = 64
	}
	return 2 * float64(threads) * float64(threshold+8)
}

// Fit is the summary of a backlog series: a linear fit of retired against
// operations over the analysis window, and the growth class it implies.
type Fit struct {
	// Slope is the fitted backlog growth in retired nodes per operation.
	Slope float64 `json:"slope"`
	// Plateau is the mean backlog over the window.
	Plateau float64 `json:"plateau"`
	// PeakRetired is the window's largest observed backlog.
	PeakRetired uint64 `json:"peak_retired"`
	// Ops is the operation progress covered by the window.
	Ops uint64 `json:"ops"`
	// Samples is how many points the window held.
	Samples int `json:"samples"`
	// Growth is the classification.
	Growth GrowthClass `json:"-"`
	// GrowthName is Growth's name (the JSON face of the class).
	GrowthName string `json:"growth"`
}

// minFitSamples is the fewest points a conclusive fit needs; below it the
// audit reports Inconclusive rather than guessing from noise.
const minFitSamples = 4

// slopeEps is the unbounded-growth cutoff in retired nodes per operation.
// A non-robust scheme under a reclamation-critical stall retains on the
// order of one node per update (slope ≈ the delete fraction of the mix);
// a robust scheme's tail slope is scan noise around zero. 1/50 sits well
// between the two regimes.
const slopeEps = 0.02

// classify fills Growth from the fitted numbers plus the window's
// endpoint, midpoint, and final points — the one rule set shared by the
// batch fit (FitPoints) and the incremental one (WindowFit).
func (f *Fit) classify(first, mid, last Point, budget Budget) {
	// Unbounded growth must be *sustained*: still climbing across the
	// window's second half. A weakly-robust scheme's backlog rises to its
	// plateau right after a fault lands — that rise can tilt the
	// least-squares slope, but its tail is flat.
	tailGrowth := float64(last.Retired) - float64(mid.Retired)
	growth := float64(last.Retired) - float64(first.Retired)
	// An unbounded verdict must also outgrow the weakly-robust *scale*:
	// Definitions 5.1–5.2 bound the backlog by functions of max_active,
	// so any plateau-bound scheme tops out on the max_active scale while
	// genuinely unbounded growth sails past it. Without this gate, a
	// window that ends inside a weakly-robust scheme's onset ramp (slow
	// machine, short run) would read as unbounded. When the probe does
	// not report max_active the gate falls away.
	maxActiveScale := 2 * float64(last.MaxActive)
	switch {
	case f.Samples >= minFitSamples && f.Ops > 0 && f.Slope > slopeEps &&
		growth > budget.robustPlateau() &&
		growth > maxActiveScale &&
		tailGrowth > budget.robustPlateau()/2:
		// Growing per-op, past both the robust budget and the
		// weakly-robust scale, and still growing through the tail — not
		// a threshold-crossing blip, not a plateau's onset ramp.
		f.Growth = GrowthUnbounded
	case f.Plateau > budget.robustPlateau():
		f.Growth = GrowthLinearThreads
	default:
		f.Growth = GrowthBounded
	}
	f.GrowthName = f.Growth.String()
}

// FitPoints fits the backlog growth over points (oldest-first) against
// budget. Points before the window of interest — e.g. before a fault was
// injected — should be trimmed by the caller; FitWindow does that.
//
// An Ops regression inside the window marks a domain restart (a churned
// shard reopened with fresh counters, or a migrated shard swapped in);
// the fit covers only the points before the reset, since later points
// describe a different incarnation.
//
// FitPoints is the batch face of the incremental WindowFit: the points
// are streamed through a window sized to hold them all, so both paths
// compute identical sums and share one classification rule set.
func FitPoints(points []Point, budget Budget) Fit {
	for i := 1; i < len(points); i++ {
		if points[i].Ops < points[i-1].Ops {
			points = points[:i]
			break
		}
	}
	w := NewWindowFit(len(points))
	for _, p := range points {
		w.Push(p)
	}
	return w.Fit(budget)
}

// FitWindow trims points to those at or after from (sampler-relative
// elapsed time) and fits the remainder. It is how audits restrict the fit
// to the faulted portion of a run.
func FitWindow(points []Point, from time.Duration, budget Budget) Fit {
	i := 0
	for i < len(points) && points[i].Elapsed < from {
		i++
	}
	return FitPoints(points[i:], budget)
}

// Consistency is the relation between a scheme's audited robustness and
// its declared class.
type Consistency uint8

// Consistency outcomes.
const (
	// Inconclusive: the window held too few points or no progress.
	Inconclusive Consistency = iota
	// Confirmed: the audit reproduced the declared class.
	Confirmed
	// Stronger: the audit observed strictly better behaviour than
	// declared (expected for a weakly-robust scheme whose worst case the
	// run did not provoke).
	Stronger
	// Violated: the audit observed strictly worse behaviour than
	// declared — the scheme does not deliver its claimed bound.
	Violated
)

// String returns the outcome name.
func (c Consistency) String() string {
	switch c {
	case Confirmed:
		return "confirmed"
	case Stronger:
		return "stronger"
	case Violated:
		return "VIOLATED"
	}
	return "inconclusive"
}

// Verdict is one scheme's robustness audit: declared class, audited
// class, the fit behind it, and their relation.
type Verdict struct {
	Scheme string `json:"scheme"`
	// Declared is the scheme's claimed RobustnessClass.
	Declared string `json:"declared"`
	// Audited is the class the series evidences.
	Audited string `json:"audited"`
	Fit     Fit    `json:"fit"`
	// Outcome relates audited to declared.
	Outcome string `json:"outcome"`

	declared, audited smr.RobustnessClass
	outcome           Consistency
}

// AuditedClass returns the audited class as a RobustnessClass.
func (v Verdict) AuditedClass() smr.RobustnessClass { return v.audited }

// Consistent reports that the audit did not contradict the declaration.
func (v Verdict) Consistent() bool { return v.outcome != Violated }

// Inconclusive reports that the window held too little evidence to
// classify — controllers must not act on an inconclusive verdict.
func (v Verdict) Inconclusive() bool { return v.outcome == Inconclusive }

// String renders the verdict as one line.
func (v Verdict) String() string {
	return fmt.Sprintf("%-10s declared %-13s audited %-13s (slope %.4f/op, plateau %.0f) %s",
		v.Scheme, v.Declared, v.Audited, v.Fit.Slope, v.Fit.Plateau, v.Outcome)
}

// auditedClass maps a growth class to the robustness class it evidences.
func auditedClass(g GrowthClass) smr.RobustnessClass {
	switch g {
	case GrowthBounded:
		return smr.Robust
	case GrowthLinearThreads:
		return smr.WeaklyRobust
	}
	return smr.NotRobust
}

// NewVerdict relates an already-computed fit to a declared class — the
// shared back half of the batch Audit and the Monitor's live verdicts.
func NewVerdict(scheme string, declared smr.RobustnessClass, fit Fit) Verdict {
	v := Verdict{
		Scheme:   scheme,
		Declared: declared.String(),
		Fit:      fit,
		declared: declared,
		audited:  auditedClass(fit.Growth),
	}
	v.Audited = v.audited.String()
	switch {
	case fit.Samples < minFitSamples || fit.Ops == 0:
		v.outcome = Inconclusive
	case v.audited == v.declared:
		v.outcome = Confirmed
	case v.audited > v.declared:
		// RobustnessClass orders NotRobust < WeaklyRobust < Robust, so
		// greater means better than claimed.
		v.outcome = Stronger
	default:
		v.outcome = Violated
	}
	v.Outcome = v.outcome.String()
	return v
}

// Audit fits the window and relates the audited class to the declared
// one. from trims the points to the faulted portion of the run
// (sampler-relative elapsed; 0 keeps everything).
func Audit(scheme string, declared smr.RobustnessClass, points []Point, from time.Duration, budget Budget) Verdict {
	return NewVerdict(scheme, declared, FitWindow(points, from, budget))
}

// NaN-proofing for JSON: a fit over a degenerate window can in principle
// produce non-finite numbers; Sanitize zeroes them so artifacts always
// encode.
func (f *Fit) Sanitize() {
	if math.IsNaN(f.Slope) || math.IsInf(f.Slope, 0) {
		f.Slope = 0
	}
	if math.IsNaN(f.Plateau) || math.IsInf(f.Plateau, 0) {
		f.Plateau = 0
	}
}
