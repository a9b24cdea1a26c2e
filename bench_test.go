// Top-level benchmark suite: one bench per classic experiment of the
// registry (internal/bench), plus micro-benchmarks for the ablation
// targets in DESIGN.md.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// BenchmarkERAMatrix regenerates EXP-ERA: the full matrix assembly — per
// scheme, the audited stalled-reader run and both adversary executions.
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

// BenchmarkFigure1 regenerates EXP-FIG1 per scheme: the Theorem 6.1
// lower-bound execution. The reported metric of interest is
// retired-per-churn (1.0 for the non-robust schemes, ~0 for the robust).
func BenchmarkFigure1(b *testing.B) {
	for _, scheme := range all.Names() {
		b.Run(scheme, func(b *testing.B) {
			var o *adversary.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				o, err = adversary.Figure1(scheme, 600, mem.Unmap)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.PeakRetired)/600, "retired/churn")
			b.ReportMetric(float64(o.Faults+o.StaleUses), "violations")
		})
	}
}

// BenchmarkFigure2 regenerates EXP-FIG2 per scheme: the Appendix E
// incompatibility execution.
func BenchmarkFigure2(b *testing.B) {
	for _, scheme := range all.Names() {
		b.Run(scheme, func(b *testing.B) {
			var o *adversary.Outcome
			var err error
			for i := 0; i < b.N; i++ {
				o, err = adversary.Figure2(scheme, mem.Unmap)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(o.Faults+o.StaleUses), "violations")
		})
	}
}

// BenchmarkStallTraversal regenerates EXP-EXT: the Figure 1 script
// generalized to the skip list and the external tree (the Section 6
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

// BenchmarkThroughput regenerates EXP-THRU: scheme × structure × mix at a
// fixed thread count (the machine is single-core; thread scaling curves
// carry no signal here, mix and structure shape do).
func BenchmarkThroughput(b *testing.B) {
	mixes := map[string]bench.Mix{
		"read90": bench.MixReadHeavy,
		"mixed":  bench.MixBalanced,
		"update": bench.MixUpdateOnly,
	}
	for _, structure := range []string{"harris", "michael", "skiplist", "nmtree", "hashmap-harris"} {
		for mixName, mix := range mixes {
			for _, scheme := range all.SafeNames() {
				if !registry.Applicable(scheme, structure) {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/%s", structure, mixName, scheme), func(b *testing.B) {
					row, err := bench.Throughput(scheme, structure, bench.ThroughputConfig{
						Threads: 2, OpsPerThread: b.N/2 + 1000, KeyRange: 512, Mix: mix, Seed: 42,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(row.MopsPerSec, "Mops/s")
					b.ReportMetric(float64(row.PeakRetired), "peak-retired")
				})
			}
		}
	}
}

// BenchmarkHarrisVsMichael regenerates EXP-MICHAEL: the Section 6
// discussion comparison on a delete-heavy mix.
func BenchmarkHarrisVsMichael(b *testing.B) {
	for _, pair := range []struct{ scheme, structure string }{
		{"ebr", "harris"},
		{"hp", "michael"},
		{"ebr", "michael"},
	} {
		b.Run(pair.scheme+"-"+pair.structure, func(b *testing.B) {
			row, err := bench.Throughput(pair.scheme, pair.structure, bench.ThroughputConfig{
				Threads: 2, OpsPerThread: b.N/2 + 2000, KeyRange: 512,
				Mix: bench.MixUpdateOnly, Seed: 42,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(row.MopsPerSec, "Mops/s")
		})
	}
}

// BenchmarkApplicabilityHarness measures the Definition 5.4 checker
// itself (randomized workload + chained linearizability check).
func BenchmarkApplicabilityHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := core.CheckApplicability("ebr", "harris", core.WorkloadConfig{
			Seed: uint64(i), StressOps: 500,
		})
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
			s := all.MustNew(scheme, a, 1, 0)
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

// BenchmarkLinearizabilityChecker measures the exhaustive checker on a
// 16-operation window (io.Discard swallows the rendering).
func BenchmarkLinearizabilityChecker(b *testing.B) {
	rep, err := core.CheckApplicability("none", "michael", core.WorkloadConfig{StressOps: -1})
	if err != nil || !rep.Applicable {
		b.Fatalf("setup: %v %v", err, rep.Detail)
	}
	_ = io.Discard
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.CheckApplicability("none", "michael", core.WorkloadConfig{
			Seed: uint64(i), StressOps: -1, Rounds: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Applicable {
			b.Fatal(rep.Detail)
		}
	}
}
