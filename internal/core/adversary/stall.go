package adversary

import (
	"fmt"

	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// StallTraversal generalizes the Figure 1 execution beyond Harris's list —
// the Section 6 discussion's open question is exactly which structures
// "behave like Harris's list" under the theorem. The script is structure
// agnostic: T1's traversal stalls at its first level-zero visit of the
// stall key, T2 churns insert(n+1)/delete(n) keeping the structure tiny
// while retiring K nodes, scans run, and T1 resumes solo.
//
// The per-structure outcomes differ in instructive ways (measured by the
// tests and `erabench -exp structures`): the skip list reproduces Harris's trichotomy
// exactly; the Natarajan-Mittal tree keeps protection-based schemes safe
// under *this* script (each traversal step protects the node it lands on,
// and the tree detaches small units rather than chains), while the
// non-robust backlog shape is unchanged — and RC, chain-pinning on the
// lists, is bounded on the tree because detached units do not link to
// each other.
func StallTraversal(scheme, structure string, K int, mode mem.ReclaimMode) (*Outcome, error) {
	if K < 2 {
		return nil, fmt.Errorf("adversary: K must be at least 2")
	}
	info, err := registry.Get(structure)
	if err != nil {
		return nil, err
	}
	if info.Kind != registry.KindSet {
		return nil, fmt.Errorf("adversary: %s is not a set structure", structure)
	}
	mode = effectiveMode(scheme, mode)
	// Trees allocate two nodes per insert.
	slots := 4*K + 256
	a := mem.NewArena(mem.Config{
		Slots: slots, PayloadWords: info.PayloadWords, MetaWords: smr.MetaWords,
		Threads: 2, Mode: mode,
	})
	s, err := all.New(scheme, a, 2, 16)
	if err != nil {
		return nil, err
	}
	bp := sched.NewBreakpoints()
	set, err := info.NewSet(s, ds.Options{Gate: bp})
	if err != nil {
		return nil, err
	}

	const t1, t2 = 0, 1
	for _, k := range []int64{1, 2} {
		if ok, err := set.Insert(t2, k); err != nil || !ok {
			return nil, fmt.Errorf("adversary: stall setup insert(%d) = %v, %v", k, ok, err)
		}
	}

	// Key 2 is on every structure's search path for 3: the lists visit it
	// directly, the skip list enters through it at its top level (key 1's
	// tower may sit below the descent path), and the external tree's
	// search for 3 lands on leaf 2.
	stall := bp.Arm(t1, ds.PointSearchVisit, func(arg uint64) bool { return arg == 2 }, 0)
	t1Task := sched.Go(func() error {
		_, err := set.Contains(t1, 3)
		return err
	})
	<-stall.Reached()

	// Era/epoch separation (as in Figure 2): advance the era clocks so
	// the churn nodes that get linked under the stalled traversal are
	// born strictly after any era T1 reserved.
	for i := int64(0); i < 16; i++ {
		if ok, err := set.Insert(t2, 1000+i); err != nil || !ok {
			return nil, fmt.Errorf("adversary: stall filler insert = %v, %v", ok, err)
		}
		if ok, err := set.Delete(t2, 1000+i); err != nil || !ok {
			return nil, fmt.Errorf("adversary: stall filler delete = %v, %v", ok, err)
		}
	}

	if ok, err := set.Delete(t2, 1); err != nil || !ok {
		return nil, fmt.Errorf("adversary: stall delete(1) = %v, %v", ok, err)
	}
	for n := int64(2); n <= int64(K); n++ {
		if ok, err := set.Insert(t2, n+1); err != nil || !ok {
			return nil, fmt.Errorf("adversary: stall insert(%d) = %v, %v", n+1, ok, err)
		}
		if ok, err := set.Delete(t2, n); err != nil || !ok {
			return nil, fmt.Errorf("adversary: stall delete(%d) = %v, %v", n, ok, err)
		}
	}
	s.Flush(t2)

	o := &Outcome{Scheme: scheme, Scenario: "stall-" + structure, K: K}
	backlogAtResume := a.Stats().Retired()

	stall.Release()
	o.StalledOpErr = t1Task.Wait()

	fill(o, a, s)
	o.Bounded = backlogAtResume < uint64(K)/4
	return o, nil
}
