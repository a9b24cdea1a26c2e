// Package adversary builds the paper's two scripted executions as
// replayable, deterministic runs parameterized by reclamation scheme:
//
//   - Figure1Of is the lower-bound execution proving Theorem 6.1: thread T1
//     stalls at the start of a traversal of Harris's linked-list while T2
//     runs an alternating insert(n+1)/delete(n) workload, keeping the data
//     structure at four active nodes while retiring n nodes. A scheme that
//     is (weakly) robust must eventually reclaim part of T1's path; when
//     T1 resumes solo, an easily-integrated scheme has no way to stop it
//     from dereferencing the reclaimed node.
//
//   - Figure2Of is the Appendix E execution showing protection-based schemes
//     (HP, HE, IBR) are not applicable to Harris's list: T1 protects node
//     15 and stalls before reading its next pointer; deleters mark 15 and
//     43 without unlinking; a traversal bulk-unlinks both; 43 is reclaimed
//     (15 survives via T1's protection); T1 resumes, validates a perfectly
//     stable pointer, and still dereferences freed memory.
//
// Every run reports a structured Outcome; the per-scheme expectations are
// what the ERA matrix (internal/core) validates empirically.
package adversary

import (
	"errors"
	"fmt"

	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/telemetry"
)

// Outcome is the structured result of one adversarial execution.
type Outcome struct {
	// Scheme is the reclamation scheme under test.
	Scheme string
	// Scenario is "figure1" (with a "/prefill=N" suffix past the
	// paper's prefix), "stall-<structure>" or "figure2".
	Scenario string
	// K is the churn length: the nodes T2 retires under the stall (the
	// stalled-reader scripts only).
	K int

	// MaxActive is the arena's max_active_E — the paper pins it at 4 for
	// Figure 1 (head, tail and at most two list nodes).
	MaxActive uint64
	// PeakRetired is the largest retired backlog observed.
	PeakRetired uint64
	// FinalRetired is the backlog when the run ended.
	FinalRetired uint64

	// Faults counts simulated segmentation faults (accesses to system
	// space) — hard safety violations.
	Faults uint64
	// StaleUses counts values read through invalid references that the
	// scheme handed to the data structure — Definition 4.2 violations.
	StaleUses uint64
	// UnsafeLoads and UnsafeStores count all unsafe accesses, including
	// the tolerated ones of optimistic schemes.
	UnsafeLoads, UnsafeStores uint64
	// Restarts counts scheme-demanded rollbacks, Neutralizations the
	// simulated signals taken.
	Restarts, Neutralizations uint64

	// StalledOpErr is the error the stalled operation returned after its
	// solo-run resume (nil when it completed normally).
	StalledOpErr error

	// Safe reports Definition 4.2 compliance: no faults, no stale uses,
	// no life-cycle violations.
	Safe bool
	// Audit is telemetry's growth fit of the backlog series T2 sampled
	// under the stall, related to the scheme's declared class (the
	// stalled-reader scripts only; zero for figure2).
	Audit telemetry.Verdict
	// Bounded reports that the audited class is at least weakly robust:
	// the backlog did not track the churn (always true for figure2).
	Bounded bool
}

// String renders a one-line summary.
func (o *Outcome) String() string {
	verdict := "SAFE"
	if !o.Safe {
		verdict = "UNSAFE"
	}
	audited := o.Audit.Audited
	if audited == "" {
		audited = "unaudited"
	}
	return fmt.Sprintf("%-10s %s: %s, backlog %s (peak %d, final %d, max_active %d), faults=%d staleUses=%d restarts=%d neut=%d",
		o.Scheme, o.Scenario, verdict, audited, o.PeakRetired, o.FinalRetired, o.MaxActive,
		o.Faults, o.StaleUses, o.Restarts, o.Neutralizations)
}

func fill(o *Outcome, a *mem.Arena, s smr.Scheme) {
	sn := a.Stats().Snapshot()
	st := s.Stats().Snapshot()
	o.PeakRetired = sn.MaxRetired
	o.FinalRetired = sn.Retired
	o.MaxActive = sn.MaxActive
	o.Faults = sn.Faults
	o.StaleUses = st.StaleUses
	o.UnsafeLoads = sn.UnsafeLoads
	o.UnsafeStores = sn.UnsafeStores
	o.Restarts = st.Restarts
	o.Neutralizations = st.Neutralizations
	o.Safe = sn.Faults == 0 && st.StaleUses == 0 && sn.Violations == 0
}

// effectiveMode honours a scheme's type-preservation requirement: the
// optimistic schemes (VBR, NBR) are only defined over program-space
// reclamation — their discarded stale reads must not hit system space.
func effectiveMode(p smr.Props, mode mem.ReclaimMode) mem.ReclaimMode {
	if p.TypePreserving {
		return mem.Reuse
	}
	return mode
}

func mustOp(name string, ok bool, want bool, err error) error {
	if err != nil {
		return fmt.Errorf("adversary: %s: %w", name, err)
	}
	if ok != want {
		return fmt.Errorf("adversary: %s returned %v, script expects %v", name, ok, want)
	}
	return nil
}

// Figure1Of runs the Theorem 6.1 lower-bound execution against the scheme
// f builds, a registered one or any other. Harris's list holds keys
// 1..prefill+1 when T1 parks right after reading head's next pointer; T2
// deletes the prefix, then alternates insert(n+1)/delete(n) up to key K,
// keeping the list at prefill+1 keys while retiring K nodes. Prefill 1 is
// the paper's execution (max_active 4); a longer prefix is what separates
// weak robustness from robustness, since a stalled era reservation pins
// every node alive when T1 parked. mode selects what reclaimed memory does
// (Unmap reproduces the segmentation-fault reading; Reuse the
// read-another-node reading — both are unsafe per Definition 4.1).
func Figure1Of(f all.Factory, prefill, K int, mode mem.ReclaimMode) (*Outcome, error) {
	scenario := "figure1"
	if prefill != 1 {
		scenario = fmt.Sprintf("figure1/prefill=%d", prefill)
	}
	return run(f, script{scenario: scenario, structure: "harris", prefill: prefill, K: K, mode: mode})
}

// Figure2Of runs the Appendix E execution against the scheme f builds.
func Figure2Of(f all.Factory, mode mem.ReclaimMode) (*Outcome, error) {
	a := mem.NewArena(mem.Config{
		Slots: 4096, PayloadWords: 2, MetaWords: smr.MetaWords, Threads: 4,
		Mode: effectiveMode(all.Probe(f).Props(), mode),
	})
	s := f(a, 4, 8)
	bp := sched.NewBreakpoints()
	l, err := harris.New(s, ds.Options{Gate: bp})
	if err != nil {
		return nil, err
	}
	const t1, t2, t3, t4 = 0, 1, 2, 3
	// The Appendix E keys: nodes 15, 43 and 76, T4's absent key 44, T1's
	// key 58.
	k := struct{ A, B, C, Probe, Insert int64 }{15, 43, 76, 44, 58}

	// Stage a: the list contains {15, 76}.
	for _, key := range []int64{k.A, k.C} {
		if ok, err := l.Insert(t4, key); err != nil || !ok {
			return nil, fmt.Errorf("adversary: initial insert(%d) = %v, %v", key, ok, err)
		}
	}
	ref15, ok := findRef(a, l, k.A)
	if !ok {
		return nil, errors.New("adversary: node 15 not found after insert")
	}

	// T1 invokes insert(58), obtains (and protects) a pointer to node 15,
	// and parks before reading 15's next pointer.
	stall := bp.Arm(t1, ds.PointSearchStep, func(arg uint64) bool {
		return mem.Ref(arg).SameNode(ref15)
	}, 0)
	t1Task := sched.Go(func() error {
		_, err := l.Insert(t1, k.Insert)
		return err
	})
	<-stall.Reached()

	// Era/epoch separation: drive allocations and retirements so that a
	// node inserted *after* T1's protection is born in a strictly later
	// era than any era T1 reserved (IBR and HE advance their clocks on
	// allocation/retirement counts).
	for i := int64(0); i < 16; i++ {
		if ok, err := l.Insert(t4, 1000+i); err != nil || !ok {
			return nil, fmt.Errorf("adversary: filler insert = %v, %v", ok, err)
		}
		if ok, err := l.Delete(t4, 1000+i); err != nil || !ok {
			return nil, fmt.Errorf("adversary: filler delete = %v, %v", ok, err)
		}
	}

	// Stage b: node 43 is inserted between 15 and 76.
	if ok, err := l.Insert(t4, k.B); err != nil || !ok {
		return nil, fmt.Errorf("adversary: insert(43) = %v, %v", ok, err)
	}

	// Stage c: T2 and T3 mark 43 and 15 respectively, both parking after
	// the mark and before the unlink.
	stall2 := bp.Arm(t2, ds.PointDeleteMarked, nil, 0)
	t2Task := sched.Go(func() error {
		ok, err := l.Delete(t2, k.B)
		if err == nil && !ok {
			return errors.New("delete(43) lost its victim")
		}
		return err
	})
	<-stall2.Reached()

	stall3 := bp.Arm(t3, ds.PointDeleteMarked, nil, 0)
	t3Task := sched.Go(func() error {
		ok, err := l.Delete(t3, k.A)
		if err == nil && !ok {
			return errors.New("delete(15) lost its victim")
		}
		return err
	})
	<-stall3.Reached()

	// Stage d: T4's delete(44) traversal bulk-unlinks the marked run
	// 15 -> 43 with a single CAS on head's next pointer, then reports 44
	// absent.
	if ok, err := l.Delete(t4, k.Probe); err != nil || ok {
		return nil, fmt.Errorf("adversary: delete(44) = %v, %v (want absent)", ok, err)
	}

	// The deleters finish: each fails its own unlink (already done),
	// re-finds, and retires its victim.
	stall3.Release()
	if err := t3Task.Wait(); err != nil {
		return nil, fmt.Errorf("adversary: T3: %w", err)
	}
	stall2.Release()
	if err := t2Task.Wait(); err != nil {
		return nil, fmt.Errorf("adversary: T2: %w", err)
	}

	// Reclamation scans: 43 is unprotected and reclaims; 15 is covered by
	// T1's protection under the protection-based schemes.
	for i := 0; i < 3; i++ {
		for tid := 0; tid < 4; tid++ {
			s.Flush(tid)
		}
	}

	o := &Outcome{Scheme: s.Name(), Scenario: "figure2"}

	// T1 resumes: it re-reads 15's next pointer (perfectly stable: a
	// marked reference to node 43), protects 43, validates, and
	// dereferences.
	stall.Release()
	o.StalledOpErr = t1Task.Wait()

	fill(o, a, s)
	o.Bounded = true
	return o, nil
}

// findRef walks the list raw and returns the reference to the node with
// the given key. Only used on quiescent structures by the director.
func findRef(a *mem.Arena, l *harris.List, key int64) (mem.Ref, bool) {
	cur, err := a.Load(0, l.Head(), ds.WNext)
	for err == nil {
		r := mem.Ref(cur).WithoutMark()
		if r.IsNil() {
			break
		}
		k, kerr := a.Load(0, r, ds.WKey)
		if kerr != nil {
			break
		}
		if int64(k) == key {
			return r, true
		}
		cur, err = a.Load(0, r, ds.WNext)
	}
	return mem.NilRef, false
}
