package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// SpaceRow is one line of the space-bound experiment (EXP-SPACE): the peak
// retired backlog under the Figure 1 stalled-reader workload, related to
// the robustness definitions' max_active·N budget.
type SpaceRow struct {
	Scheme      string
	K           int
	PeakRetired uint64
	MaxActive   uint64
	// PerChurn is PeakRetired/K — near 1 for the non-robust schemes,
	// near 0 for the (weakly) robust ones.
	PerChurn float64
	Safe     bool
}

// SpaceBound measures the stalled-reader backlog for one scheme.
func SpaceBound(scheme string, k int) (SpaceRow, error) {
	o, err := adversary.Figure1(scheme, k, mem.Reuse)
	if err != nil {
		return SpaceRow{}, err
	}
	return SpaceRow{
		Scheme:      scheme,
		K:           k,
		PeakRetired: o.PeakRetired,
		MaxActive:   o.MaxActive,
		PerChurn:    float64(o.PeakRetired) / float64(k),
		Safe:        o.Safe,
	}, nil
}

// SpaceRows is EXP-SPACE's result.
type SpaceRows []SpaceRow

// Gates: EXP-SPACE asserts nothing at run time (its shape is unit-tested).
func (SpaceRows) Gates() []Gate { return nil }

// WriteTable renders the space experiment.
func (rows SpaceRows) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-11s %8s %13s %11s %9s %s\n", "scheme", "K", "peak-retired", "max-active", "per-churn", "safe")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %8d %13d %11d %9.3f %v\n",
			r.Scheme, r.K, r.PeakRetired, r.MaxActive, r.PerChurn, r.Safe)
	}
}

func runSpace(p Profile) (Result, error) { return SpaceSweep(p.k()) }

// SpaceSweep runs SpaceBound for every safe scheme.
func SpaceSweep(k int) (SpaceRows, error) {
	var rows SpaceRows
	for _, scheme := range all.SafeNames() {
		r, err := SpaceBound(scheme, k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// StallSample is one point of the backlog-over-time series (EXP-STALL).
type StallSample struct {
	// Step is the churn progress (operations completed by the live thread).
	Step int
	// Retired is the backlog at that point.
	Retired uint64
}

// StallSeries drives the Figure 1 workload for one scheme and samples the
// retired backlog every sampleEvery churn steps, producing the
// backlog-over-time curve that separates EBR/QSBR from the robust family.
func StallSeries(scheme string, steps, sampleEvery int) ([]StallSample, error) {
	if steps <= 0 {
		steps = 2000
	}
	if sampleEvery <= 0 {
		sampleEvery = steps / 20
	}
	a := mem.NewArena(mem.Config{
		Slots: 2*steps + 128, PayloadWords: 2, MetaWords: smr.MetaWords, Threads: 2, Mode: mem.Reuse,
	})
	s, err := all.New(scheme, a, 2, 16)
	if err != nil {
		return nil, err
	}
	bp := sched.NewBreakpoints()
	l, err := harris.New(s, ds.Options{Gate: bp})
	if err != nil {
		return nil, err
	}
	for _, k := range []int64{1, 2} {
		if ok, err := l.Insert(1, k); err != nil || !ok {
			return nil, fmt.Errorf("bench: stall setup insert(%d) = %v, %v", k, ok, err)
		}
	}
	stall := bp.Arm(0, ds.PointSearchHead, nil, 0)
	t1 := sched.Go(func() error {
		_, err := l.Delete(0, 3)
		return err
	})
	<-stall.Reached()
	defer func() {
		stall.Release()
		_ = t1.Wait()
	}()

	var series []StallSample
	if ok, err := l.Delete(1, 1); err != nil || !ok {
		return nil, fmt.Errorf("bench: stall delete(1) = %v, %v", ok, err)
	}
	for n := int64(2); n <= int64(steps); n++ {
		if ok, err := l.Insert(1, n+1); err != nil || !ok {
			return nil, fmt.Errorf("bench: stall insert(%d) = %v, %v", n+1, ok, err)
		}
		if ok, err := l.Delete(1, n); err != nil || !ok {
			return nil, fmt.Errorf("bench: stall delete(%d) = %v, %v", n, ok, err)
		}
		if int(n)%sampleEvery == 0 {
			series = append(series, StallSample{Step: int(n), Retired: a.Stats().Retired()})
		}
	}
	return series, nil
}

// StallCurves is EXP-STALL's result: one backlog-over-time series per
// scheme, sampled at the same steps.
type StallCurves map[string][]StallSample

// Gates: EXP-STALL asserts nothing at run time (its shape is unit-tested).
func (StallCurves) Gates() []Gate { return nil }

// WriteTable renders the curves side by side, one column per scheme.
func (series StallCurves) WriteTable(w io.Writer) {
	schemes := make([]string, 0, len(series))
	for s := range series {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	fmt.Fprintf(w, "%-8s", "step")
	for _, s := range schemes {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	if len(schemes) == 0 {
		return
	}
	for i := range series[schemes[0]] {
		fmt.Fprintf(w, "%-8d", series[schemes[0]][i].Step)
		for _, s := range schemes {
			fmt.Fprintf(w, " %12d", series[s][i].Retired)
		}
		fmt.Fprintln(w)
	}
}

func runStall(Profile) (Result, error) {
	series := StallCurves{}
	for _, scheme := range []string{"ebr", "qsbr", "hp", "ibr", "vbr", "nbr"} {
		s, err := StallSeries(scheme, 2000, 200)
		if err != nil {
			return nil, err
		}
		series[scheme] = s
	}
	return series, nil
}

// ThroughputResult is the result of the throughput-shaped experiments
// (EXP-THRU, EXP-MICHAEL, the workloads example): measured rows.
type ThroughputResult struct {
	Rows []ThroughputRow `json:"rows"`
}

// Gates: throughput rows from shared runners are shape, not claims.
func (ThroughputResult) Gates() []Gate { return nil }

// WriteTable renders throughput rows.
func (res ThroughputResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-11s %-16s %7s %9s %-18s %9s %10s %10s %10s %13s %9s\n",
		"scheme", "structure", "threads", "mix", "workload", "keyrange", "Mops/s", "p50", "p99", "peak-retired", "restarts")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-11s %-16s %7d %9s %-18s %9d %10.3f %10s %10s %13d %9d\n",
			r.Scheme, r.Structure, r.Threads, r.Mix, r.Workload+"/"+r.Schedule,
			r.KeyRange, r.MopsPerSec, fmtLatency(r.P50), fmtLatency(r.P99), r.PeakRetired, r.Restarts)
	}
}

func fmtLatency(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Nanosecond).String()
}

// throughputConfig is the throughput-shaped experiments' engine sizing
// under a profile.
func (p Profile) throughputConfig() ThroughputConfig {
	return ThroughputConfig{
		OpsPerThread: p.ops(), KeyRange: p.keyRange(), Seed: p.Seed,
		Workload: p.Workload, Schedule: p.Schedule,
	}
}

// runThroughput is EXP-THRU: every safe scheme × the three standard mixes
// × 1/2/4 threads on one set structure.
func runThroughput(p Profile) (Result, error) {
	structure := p.Structure
	if structure == "" {
		structure = "harris"
	}
	rows, err := ThroughputSweep(structure, all.SafeNames(),
		[]Mix{MixReadHeavy, MixBalanced, MixUpdateOnly}, []int{1, 2, 4}, p.throughputConfig())
	if err != nil {
		return nil, err
	}
	return ThroughputResult{Rows: rows}, nil
}

// ThroughputSweep runs the scheme × mix × threads sweep on one structure.
func ThroughputSweep(structure string, schemes []string, mixes []Mix, threads []int, cfg ThroughputConfig) ([]ThroughputRow, error) {
	var rows []ThroughputRow
	for _, scheme := range schemes {
		if !registry.Applicable(scheme, structure) {
			continue
		}
		for _, mix := range mixes {
			for _, n := range threads {
				c := cfg
				c.Threads = n
				c.Mix = mix
				r, err := Throughput(scheme, structure, c)
				if err != nil {
					return nil, fmt.Errorf("%s × %s: %w", scheme, structure, err)
				}
				rows = append(rows, r)
			}
		}
	}
	return rows, nil
}

// MichaelComparison is the Section 6 discussion experiment (EXP-MICHAEL):
// Harris's list under EBR versus Michael's HP-compatible modification
// under HP, on a delete-heavy mix. The paper's point: forcing a data
// structure into the shape a protection scheme needs costs performance.
func MichaelComparison(cfg ThroughputConfig) ([]ThroughputRow, error) {
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixUpdateOnly
	}
	var rows []ThroughputRow
	for _, pair := range []struct{ scheme, structure string }{
		{"ebr", "harris"},
		{"hp", "michael"},
		{"ebr", "michael"},
	} {
		r, err := Throughput(pair.scheme, pair.structure, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func runMichael(p Profile) (Result, error) {
	cfg := p.throughputConfig()
	cfg.Threads = 2
	rows, err := MichaelComparison(cfg)
	if err != nil {
		return nil, err
	}
	return ThroughputResult{Rows: rows}, nil
}

// matrixResult is EXP-ERA's result: the assembled ERA matrix.
type matrixResult struct{ m core.Matrix }

func (matrixResult) Gates() []Gate { return nil }

func (r matrixResult) WriteTable(w io.Writer) { io.WriteString(w, r.m.String()) }

func runMatrix(p Profile) (Result, error) {
	m, err := core.BuildMatrix(p.k())
	if err != nil {
		return nil, err
	}
	return matrixResult{m}, nil
}

// structuresResult is EXP-EXT's result: per traversal structure, the
// Figure 1 stall script's outcome under every safe scheme.
type structuresResult []structureStalls

type structureStalls struct {
	structure string
	outcomes  []*adversary.Outcome
}

func (structuresResult) Gates() []Gate { return nil }

func (res structuresResult) WriteTable(w io.Writer) {
	for _, s := range res {
		fmt.Fprintf(w, "-- %s --\n", s.structure)
		for _, o := range s.outcomes {
			fmt.Fprintln(w, o)
		}
	}
}

// runStructures sweeps the registry's traversal structures (sorted, so
// the table orders stably and new structures join automatically).
func runStructures(p Profile) (Result, error) {
	var res structuresResult
	for _, structure := range registry.TraversalSetNames() {
		s := structureStalls{structure: structure}
		for _, scheme := range all.SafeNames() {
			o, err := adversary.StallTraversal(scheme, structure, p.k(), mem.Unmap)
			if err != nil {
				return nil, err
			}
			s.outcomes = append(s.outcomes, o)
		}
		res = append(res, s)
	}
	return res, nil
}
