// Top-level benchmark suite: one bench per paper execution cmd/eramatrix
// prints, one per throughput cell of the registry (internal/bench), plus
// micro-benchmarks for the ablation targets in DESIGN.md.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/ds"
	"repro/internal/ds/drive"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// BenchmarkERAMatrix times the matrix eramatrix prints: the full matrix
// assembly — per scheme, the audited stalled-reader run and both
// adversary executions.
func BenchmarkERAMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := core.BuildMatrix(400)
		if err != nil {
			b.Fatal(err)
		}
		if !m.TheoremHolds() {
			b.Fatal("theorem violated")
		}
	}
}

// BenchmarkFigure1 times eramatrix's Figure 1 witness per scheme: the
// Theorem 6.1 lower-bound execution. The reported metric of interest is
// retired-per-churn (1.0 for the non-robust schemes, ~0 for the robust).
func BenchmarkFigure1(b *testing.B) {
	for _, scheme := range all.Names() {
		b.Run(scheme, func(b *testing.B) {
			f, err := all.Get(scheme)
			if err != nil {
				b.Fatal(err)
			}
			var o *adversary.Outcome
			for i := 0; i < b.N; i++ {
				o, err = adversary.Figure1Of(f, 1, 600, mem.Unmap)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.PeakRetired)/600, "retired/churn")
			b.ReportMetric(float64(o.Faults+o.StaleUses), "violations")
		})
	}
}

// BenchmarkFigure2 times eramatrix's Figure 2 witness per scheme: the
// Appendix E incompatibility execution.
func BenchmarkFigure2(b *testing.B) {
	for _, scheme := range all.Names() {
		b.Run(scheme, func(b *testing.B) {
			f, err := all.Get(scheme)
			if err != nil {
				b.Fatal(err)
			}
			var o *adversary.Outcome
			for i := 0; i < b.N; i++ {
				o, err = adversary.Figure2Of(f, mem.Unmap)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.Faults+o.StaleUses), "violations")
		})
	}
}

// BenchmarkStallTraversal times eramatrix's stall rows: the Figure 1
// script generalized to the skip list and the external tree (the Section 6
// open question about which structures behave like Harris's list).
func BenchmarkStallTraversal(b *testing.B) {
	for _, structure := range []string{"harris", "skiplist", "nmtree"} {
		for _, scheme := range []string{"ebr", "hp", "vbr"} {
			b.Run(structure+"/"+scheme, func(b *testing.B) {
				var o *adversary.Outcome
				var err error
				for i := 0; i < b.N; i++ {
					o, err = adversary.StallTraversal(scheme, structure, 600, mem.Unmap)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(o.PeakRetired)/600, "retired/churn")
				b.ReportMetric(float64(o.Faults+o.StaleUses), "violations")
			})
		}
	}
}

// BenchmarkThroughput regenerates EXP-THRU cell by cell, the Section 6
// comparison's three cells (EXP-MICHAEL) last. A failed known-red cell
// skips with its symptom and the drive.Script that replays it.
func BenchmarkThroughput(b *testing.B) {
	for _, c := range bench.ThroughputCells("harris") {
		mix := strings.ReplaceAll(c.Mix.String(), "/", "-")
		b.Run(fmt.Sprintf("%s/%s/%s/%dT", c.Structure, c.Scheme, mix, c.Threads), func(b *testing.B) {
			row, err := bench.RunCell(c, bench.Profile{Ops: b.N/c.Threads + 1000, KeyRange: 512, Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			if row.Symptom != "" {
				b.Skipf("%s\n%s", row.Symptom, row.Script)
			}
			b.ReportMetric(row.MopsPerSec, "Mops/s")
			b.ReportMetric(float64(row.PeakRetired), "peak-retired")
		})
	}
}

// BenchmarkApplicabilityHarness measures the Definition 5.4 checker
// itself (randomized workload + chained linearizability check).
func BenchmarkApplicabilityHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stress, rounds := core.ApplicabilityScripts(uint64(i))
		stress.Ops = 500
		rep, err := core.CheckApplicability("ebr", "harris", stress, rounds)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Applicable {
			b.Fatal(rep.Detail)
		}
	}
}

// --- ablation micro-benchmarks (DESIGN.md "key design decisions") -------

// BenchmarkArenaAlloc measures the allocation fast path (per-thread cache
// hit) including the life-cycle bookkeeping.
func BenchmarkArenaAlloc(b *testing.B) {
	a := mem.NewArena(mem.Config{Slots: 1 << 16, PayloadWords: 2, Threads: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := a.Alloc(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Retire(0, r); err != nil {
			b.Fatal(err)
		}
		if err := a.Reclaim(0, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTagValidation quantifies the cost of the per-access tag check —
// the price of simulating manual memory on a GC runtime (ablation 1).
func BenchmarkTagValidation(b *testing.B) {
	a := mem.NewArena(mem.Config{Slots: 64, PayloadWords: 2, Threads: 1})
	r, err := a.Alloc(0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("validated-load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Load(0, r, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("valid-check-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !a.Valid(r) {
				b.Fatal("ref must be valid")
			}
		}
	})
}

// BenchmarkSchemeReadPtr compares the guarded pointer-load cost across
// schemes — the read-barrier price each scheme charges (ablation 2).
func BenchmarkSchemeReadPtr(b *testing.B) {
	for _, scheme := range all.Names() {
		b.Run(scheme, func(b *testing.B) {
			a := mem.NewArena(mem.Config{
				Slots: 64, PayloadWords: 2, MetaWords: smr.MetaWords, Threads: 1,
			})
			s, err := all.New(scheme, a, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			src, err := s.Alloc(0)
			if err != nil {
				b.Fatal(err)
			}
			tgt, err := s.Alloc(0)
			if err != nil {
				b.Fatal(err)
			}
			if !s.WritePtr(0, src, ds.WNext, tgt) {
				b.Fatal("init failed")
			}
			s.BeginOp(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.ReadPtr(0, 0, src, ds.WNext); !ok {
					b.Fatal("unexpected rollback")
				}
			}
			b.StopTimer()
			s.EndOp(0)
		})
	}
}

// BenchmarkLinearizabilityChecker measures the applicability check with
// no stress: four recorded 12-operation rounds and the chained exhaustive
// check over them.
func BenchmarkLinearizabilityChecker(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rounds := core.ApplicabilityScripts(uint64(i))
		rounds.Rounds = 4
		rep, err := core.CheckApplicability("none", "michael", drive.Script{}, rounds)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Applicable {
			b.Fatal(rep.Detail)
		}
	}
}
