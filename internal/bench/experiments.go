package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr/all"
)

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
