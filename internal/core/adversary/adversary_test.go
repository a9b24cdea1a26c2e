package adversary_test

import (
	"testing"

	"repro/internal/core/adversary"
	"repro/internal/mem"
	"repro/internal/smr/all"
)

// expectations encode the paper's analysis of each scheme on Harris's
// linked-list under the Theorem 6.1 execution:
//
//   - safe && bounded: only the rollback-requiring schemes (VBR, NBR) —
//     robustness + wide applicability, bought with hard integration.
//   - safe && !bounded: the easy + widely applicable schemes (EBR, QSBR)
//     and the chain-pinning ones (RC), plus the leak baseline.
//   - !safe: the protection-based easy + robust schemes (HP, HE, IBR) and
//     the failure-injection baseline.
type expectation struct {
	safe    bool
	bounded bool
}

// factory returns the registry's factory for the named scheme.
func factory(tb testing.TB, scheme string) all.Factory {
	tb.Helper()
	f, err := all.Get(scheme)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

var figure1Want = map[string]expectation{
	"ebr":        {safe: true, bounded: false},
	"qsbr":       {safe: true, bounded: false},
	"none":       {safe: true, bounded: false},
	"rc":         {safe: true, bounded: false},
	"hp":         {safe: false},
	"he":         {safe: false},
	"ibr":        {safe: false},
	"unsafefree": {safe: false},
	"vbr":        {safe: true, bounded: true},
	"nbr":        {safe: true, bounded: true},
	"pebr":       {safe: true, bounded: true},
}

// TestTheoremERA runs the Figure 1 execution for every scheme and checks
// the trichotomy above — no scheme is simultaneously safe on Harris's
// list (applicable), bounded (robust), and rollback-free (easy).
func TestTheoremERA(t *testing.T) {
	const K = 600
	for _, scheme := range all.Names() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			o, err := adversary.Figure1Of(factory(t, scheme), 1, K, mem.Unmap)
			if err != nil {
				t.Fatalf("figure1: %v", err)
			}
			want, ok := figure1Want[scheme]
			if !ok {
				t.Fatalf("no expectation recorded for scheme %q", scheme)
			}
			if o.Safe != want.safe {
				t.Errorf("safe = %v, want %v (%s)", o.Safe, want.safe, o)
			}
			if want.safe && o.Bounded != want.bounded {
				t.Errorf("bounded = %v, want %v (%s)", o.Bounded, want.bounded, o)
			}
			if o.MaxActive != 4 {
				t.Errorf("max_active = %d, want the paper's 4", o.MaxActive)
			}
			if want.safe && o.StalledOpErr != nil {
				t.Errorf("stalled operation failed on a safe scheme: %v", o.StalledOpErr)
			}
			// The theorem itself: safe + bounded implies rollbacks were
			// taken (the scheme is not easily integrated).
			if o.Safe && o.Bounded && o.Restarts == 0 && o.Neutralizations == 0 {
				t.Errorf("scheme is safe, bounded, and rollback-free on Harris's list — contradicts Theorem 6.1 (%s)", o)
			}
		})
	}
}

// TestTheoremERAReuseMode re-runs Figure 1 with reclaimed slots recycled
// into program space: the unsafe schemes now read recycled memory instead
// of faulting — still a Definition 4.2 violation (stale value use).
func TestTheoremERAReuseMode(t *testing.T) {
	for _, scheme := range []string{"ebr", "hp", "vbr", "nbr"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			o, err := adversary.Figure1Of(factory(t, scheme), 1, 600, mem.Reuse)
			if err != nil {
				t.Fatalf("figure1: %v", err)
			}
			want := figure1Want[scheme]
			if o.Safe != want.safe {
				t.Errorf("safe = %v, want %v (%s)", o.Safe, want.safe, o)
			}
			if !want.safe && o.Faults != 0 {
				t.Errorf("reuse mode should not fault (got %d); violations surface as stale uses", o.Faults)
			}
		})
	}
}

// TestFigure1GrowthTracksChurn: for the non-robust schemes the backlog is
// linear in K — the execution-length-dependent growth that robustness
// definitions exclude.
func TestFigure1GrowthTracksChurn(t *testing.T) {
	for _, scheme := range []string{"ebr", "qsbr", "none"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			var prev uint64
			for _, k := range []int{200, 400, 800} {
				o, err := adversary.Figure1Of(factory(t, scheme), 1, k, mem.Unmap)
				if err != nil {
					t.Fatal(err)
				}
				if o.FinalRetired < uint64(k)-64 {
					t.Errorf("K=%d: backlog %d does not track churn", k, o.FinalRetired)
				}
				if o.FinalRetired <= prev {
					t.Errorf("K=%d: backlog %d did not grow from %d", k, o.FinalRetired, prev)
				}
				prev = o.FinalRetired
			}
		})
	}
}

// TestFigure1RobustBoundIndependentOfChurn: for the robust schemes the
// backlog is flat in K.
func TestFigure1RobustBoundIndependentOfChurn(t *testing.T) {
	for _, scheme := range []string{"vbr", "nbr"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			var backlogs []uint64
			for _, k := range []int{200, 800} {
				o, err := adversary.Figure1Of(factory(t, scheme), 1, k, mem.Unmap)
				if err != nil {
					t.Fatal(err)
				}
				backlogs = append(backlogs, o.PeakRetired)
			}
			if backlogs[1] > 2*backlogs[0]+16 {
				t.Errorf("peak backlog grew with churn: %v", backlogs)
			}
		})
	}
}

var figure2Want = map[string]bool{ // scheme -> safe?
	"ebr": true, "qsbr": true, "none": true, "rc": true,
	"vbr": true, "nbr": true, "pebr": true,
	"hp": false, "he": false, "ibr": false, "unsafefree": false,
}

// TestFigure2Incompatibility runs the Appendix E execution: the
// protection-based schemes validate a stable source pointer and still
// dereference reclaimed memory.
func TestFigure2Incompatibility(t *testing.T) {
	for _, scheme := range all.Names() {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			o, err := adversary.Figure2Of(factory(t, scheme), mem.Unmap)
			if err != nil {
				t.Fatalf("figure2: %v", err)
			}
			want, ok := figure2Want[scheme]
			if !ok {
				t.Fatalf("no expectation recorded for scheme %q", scheme)
			}
			if o.Safe != want {
				t.Errorf("safe = %v, want %v (%s)", o.Safe, want, o)
			}
			if want && o.StalledOpErr != nil {
				t.Errorf("insert(58) failed on a safe scheme: %v", o.StalledOpErr)
			}
		})
	}
}

// TestFigure1Deterministic: same inputs, same outcome — the scripted
// executions are replayable down to every peak, final and fault count,
// which is what makes eramatrix's output byte-identical across runs.
func TestFigure1Deterministic(t *testing.T) {
	a, err := adversary.Figure1Of(factory(t, "hp"), 1, 300, mem.Unmap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := adversary.Figure1Of(factory(t, "hp"), 1, 300, mem.Unmap)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("outcomes differ:\n  %s\n  %s", a, b)
	}
}

// TestBadInputs covers the error paths.
func TestBadInputs(t *testing.T) {
	if _, err := adversary.Figure1Of(factory(t, "ebr"), 1, 1, mem.Unmap); err == nil {
		t.Error("K=1 accepted")
	}
	if _, err := adversary.Figure1Of(factory(t, "ebr"), 8, 8, mem.Unmap); err == nil {
		t.Error("K=prefill accepted")
	}
}
