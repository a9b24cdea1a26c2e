package adversary

import (
	"fmt"

	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/telemetry"
)

// script is one stalled-reader execution: T1 parks mid-search on a set
// structure while T2 retires keys under it, then T1 resumes solo.
type script struct {
	scenario  string
	structure string // a registry set structure
	// The set holds keys 1..prefill+1 when T1 parks. T2 deletes keys
	// 1..prefill, then churns insert(n+1)/delete(n) for n = prefill+1..K,
	// so it retires K nodes while the structure stays at prefill+1 keys.
	prefill, K int
	// visit parks T1's contains(prefill+2) at its first visit of key
	// prefill+1, after a filler churn that advances the era clocks so the
	// churn's nodes are born strictly after any era T1 reserved. Otherwise
	// T1's delete(prefill+2) parks right after reading the entry point's
	// next pointer — Figure 1 at prefill 1.
	visit bool
	mode  mem.ReclaimMode
}

// threshold is the scripts' retire-list scan threshold; the backlog audit
// judges the series against the same budget.
const threshold = 16

// run executes sc against the scheme f builds. T2 samples the retired
// backlog every max(1, churn/20) churn steps and once more after its final
// flush; telemetry's growth fit — the one the live monitor uses — audits
// that series against the scheme's declared class, and Bounded is the
// audited class being at least weakly robust.
func run(f all.Factory, sc script) (*Outcome, error) {
	if sc.prefill < 1 || sc.K <= sc.prefill {
		return nil, fmt.Errorf("adversary: K must exceed prefill (K=%d, prefill=%d)", sc.K, sc.prefill)
	}
	info, err := registry.Get(sc.structure)
	if err != nil {
		return nil, err
	}
	if info.Kind != registry.KindSet {
		return nil, fmt.Errorf("adversary: %s is not a set structure", sc.structure)
	}
	props := all.Probe(f).Props()
	// Trees allocate two nodes per insert.
	a := mem.NewArena(mem.Config{
		Slots: 4*sc.K + 256, PayloadWords: info.PayloadWords, MetaWords: smr.MetaWords,
		Threads: 2, Mode: effectiveMode(props, sc.mode),
	})
	s := f(a, 2, threshold)
	bp := sched.NewBreakpoints()
	set, err := info.NewSet(s, ds.Options{Gate: bp})
	if err != nil {
		return nil, err
	}

	const t1, t2 = 0, 1
	// T2's updates; the first failure sticks and makes the rest no-ops.
	var ops uint64 // completed updates: the series' x-axis
	var failed error
	update := func(insert bool, key int64) {
		op, do := "delete", set.Delete
		if insert {
			op, do = "insert", set.Insert
		}
		if failed == nil {
			ok, err := do(t2, key)
			ops++
			failed = mustOp(fmt.Sprintf("%s(%d)", op, key), ok, true, err)
		}
	}
	for k := int64(1); k <= int64(sc.prefill)+1; k++ {
		update(true, k)
	}
	if failed != nil {
		return nil, failed
	}

	point, search := ds.PointSearchHead, set.Delete
	var match func(arg uint64) bool // nil: the first hit
	if sc.visit {
		point, search = ds.PointSearchVisit, set.Contains
		match = func(arg uint64) bool { return arg == uint64(sc.prefill)+1 }
	}
	stall := bp.Arm(t1, point, match, 0)
	t1Task := sched.Go(func() error {
		_, err := search(t1, int64(sc.prefill)+2)
		return err
	})
	<-stall.Reached()
	defer stall.Release()

	if sc.visit {
		for i := int64(0); i < 16; i++ {
			update(true, 1000+i)
			update(false, 1000+i)
		}
	}
	for k := int64(1); k <= int64(sc.prefill); k++ {
		update(false, k)
	}
	var series []telemetry.Point
	sample := func() {
		st := a.Stats()
		series = append(series, telemetry.Point{Ops: ops, Retired: st.Retired(), MaxActive: st.MaxActive()})
	}
	every := max(1, (sc.K-sc.prefill)/20)
	for n := int64(sc.prefill) + 1; n <= int64(sc.K); n++ {
		update(true, n+1)
		update(false, n)
		if (int(n)-sc.prefill)%every == 0 {
			sample()
		}
	}
	if failed != nil {
		return nil, failed
	}
	s.Flush(t2)
	sample()

	o := &Outcome{Scheme: s.Name(), Scenario: sc.scenario, K: sc.K}
	stall.Release()
	o.StalledOpErr = t1Task.Wait()
	fill(o, a, s)
	o.Audit = telemetry.Audit(o.Scheme, props.Robustness, series, 0,
		telemetry.Budget{Threads: 2, Threshold: threshold})
	o.Bounded = o.Audit.AuditedClass() != smr.NotRobust
	return o, nil
}

// StallTraversal generalizes the Figure 1 execution beyond Harris's list —
// the Section 6 discussion's open question is exactly which structures
// "behave like Harris's list" under the theorem. The script is structure
// agnostic: T1's traversal stalls at its first level-zero visit of key 2,
// T2 churns insert(n+1)/delete(n) keeping the structure tiny while
// retiring K nodes, scans run, and T1 resumes solo.
//
// Key 2 is on every structure's search path for 3: the lists visit it
// directly, the skip list enters through it at its top level (key 1's
// tower may sit below the descent path), and the external tree's search
// for 3 lands on leaf 2.
//
// The per-structure outcomes differ in instructive ways (measured by the
// tests and printed by cmd/eramatrix): the skip list reproduces Harris's
// trichotomy exactly; the Natarajan-Mittal tree keeps protection-based
// schemes safe under *this* script (each traversal step protects the node
// it lands on, and the tree detaches small units rather than chains),
// while the non-robust backlog shape is unchanged — and RC, chain-pinning
// on the lists, is bounded on the tree because detached units do not link
// to each other.
func StallTraversal(scheme, structure string, K int, mode mem.ReclaimMode) (*Outcome, error) {
	f, err := all.Get(scheme)
	if err != nil {
		return nil, err
	}
	return run(f, script{
		scenario: "stall-" + structure, structure: structure,
		prefill: 1, K: K, visit: true, mode: mode,
	})
}
