package all_test

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/smr/smrtest"
)

func newArena(n int) *mem.Arena {
	return mem.NewArena(mem.Config{Slots: 256, PayloadWords: 2, MetaWords: smr.MetaWords, Threads: n})
}

// TestEverySchemeConstructs builds each registered scheme and checks the
// interface basics hold.
func TestEverySchemeConstructs(t *testing.T) {
	for _, name := range all.Names() {
		s, err := all.New(name, newArena(2), 2, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("scheme %q reports name %q", name, s.Name())
		}
		if s.Heap() == nil {
			t.Errorf("%s: nil heap", name)
		}
		// A basic allocate/publish/read cycle must work on every scheme.
		s.BeginOp(0)
		r, err := s.Alloc(0)
		if err != nil {
			t.Fatalf("%s: alloc: %v", name, err)
		}
		if !s.Write(0, r, 0, 11) {
			t.Fatalf("%s: write to local node rolled back", name)
		}
		if v, ok := s.Read(0, r, 0); !ok || v != 11 {
			t.Fatalf("%s: read = %d, %v", name, v, ok)
		}
		s.EndOp(0)
	}
}

// TestUnknownScheme checks the error path.
func TestUnknownScheme(t *testing.T) {
	if _, err := all.New("gc", newArena(1), 1, 0); err == nil {
		t.Fatal("expected an error for an unknown scheme")
	}
}

// TestSafeNamesExcludesBaseline ensures the failure-injection baseline is
// excluded from the safe enumeration.
func TestSafeNamesExcludesBaseline(t *testing.T) {
	for _, n := range all.SafeNames() {
		if n == "unsafefree" {
			t.Fatal("unsafefree listed among safe schemes")
		}
	}
	if len(all.SafeNames()) != len(all.Names())-1 {
		t.Fatalf("SafeNames = %v, Names = %v", all.SafeNames(), all.Names())
	}
}

// TestClaimedPropertiesMatchERA: per the ERA theorem, no scheme may claim
// all three of easy integration, (weak) robustness, and wide/strong
// applicability. This is the static half of the ERA matrix; the empirical
// half lives in internal/core.
func TestClaimedPropertiesMatchERA(t *testing.T) {
	for _, name := range all.SafeNames() {
		s, err := all.New(name, newArena(1), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := s.Props()
		easy := p.EasyIntegration()
		robust := p.Robustness != smr.NotRobust // weak robustness suffices for the theorem
		wide := p.Applicability == smr.WidelyApplicable || p.Applicability == smr.StronglyApplicable
		if easy && robust && wide {
			t.Errorf("%s claims all three ERA properties — contradicts Theorem 6.1", name)
		}
	}
}

// TestScansAllocateNothing: every scheme's retire path, reclamation scans
// included, works in per-thread scratch, so a steady stream of bracketed
// alloc→retire rounds allocates no Go memory.
func TestScansAllocateNothing(t *testing.T) {
	const threads, threshold, rounds = 2, 32, 64
	for _, name := range all.Names() {
		t.Run(name, func(t *testing.T) {
			s, err := all.New(name, smrtest.NewArena(threads, 1<<12, mem.Reuse), threads, threshold)
			if err != nil {
				t.Fatal(err)
			}
			var churnErr error
			allocs := testing.AllocsPerRun(10, func() {
				if err := smrtest.Churn(s, 0, rounds); err != nil && churnErr == nil {
					churnErr = err
				}
			})
			if churnErr != nil {
				t.Fatal(churnErr)
			}
			if allocs != 0 {
				t.Errorf("%.0f allocs per %d alloc→retire rounds, want 0", allocs, rounds)
			}
		})
	}
}
