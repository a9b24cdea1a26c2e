package accessaware_test

import (
	"testing"

	"repro/internal/core/accessaware"
	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/ds/michael"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

func tracingEnv(t *testing.T, scheme string, n int) (*mem.Arena, smr.Scheme) {
	t.Helper()
	a := mem.NewArena(mem.Config{
		Slots: 1 << 12, PayloadWords: 2, MetaWords: smr.MetaWords,
		Threads: n, Mode: mem.Reuse, Trace: true,
	})
	s, err := all.New(scheme, a, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a, s
}

// TestHarrisAccessAware mechanically replays Appendix D: every Harris
// operation, traced, respects the read/write phase discipline.
func TestHarrisAccessAware(t *testing.T) {
	a, s := tracingEnv(t, "ebr", 1)
	l, err := harris.New(s, ds.Options{Phases: true})
	if err != nil {
		t.Fatal(err)
	}
	// A workload covering every code path: fresh inserts, duplicate
	// inserts, deletes of present and absent keys, contains hits and
	// misses, and traversals over marked runs.
	for k := int64(0); k < 40; k++ {
		if _, err := l.Insert(0, k*2); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 40; k++ {
		l.Insert(0, k*2)      // duplicates
		l.Delete(0, k*4)      // every other present key
		l.Delete(0, k*4+1)    // absent keys
		l.Contains(0, k*2)    // hits and misses
		l.Contains(0, k*2+1)  // misses
		l.Insert(0, 1000+k*3) // fresh region
		l.Delete(0, 1000+k*3) // immediate removal
	}
	vs := accessaware.Verify(a, 1, accessaware.Config{
		Entries:   []mem.Ref{l.Head(), l.Tail()},
		LinkWords: []int{ds.WNext},
	})
	for _, v := range vs {
		t.Errorf("violation: %s", v)
	}
}

// tracedList is a list the concurrent checks drive: a set with fused
// batches and its two entry points.
type tracedList interface {
	ds.Set
	ds.BatchSet
	Head() mem.Ref
	Tail() mem.Ref
}

// checkConcurrent runs four threads of single ops and key-sorted fused
// batches over one traced list and verifies every thread's trace. The
// lists' finds resume from a cached predecessor after losing an unlink
// CAS, and a batch's ops resume from the cross-op cursor, so both
// PhaseResume sources are exercised under real interference.
func checkConcurrent(t *testing.T, newList func(smr.Scheme) (tracedList, error)) {
	const threads, batch = 4, 6
	a, s := tracingEnv(t, "ebr", threads)
	l, err := newList(s)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, threads)
	for tid := 0; tid < threads; tid++ {
		go func(tid int) {
			ops := make([]ds.BatchOp, batch)
			res := make([]ds.BatchResult, batch)
			var err error
			for i := 0; i < 400 && err == nil; i++ {
				key := int64((i*7 + tid*13) % 32)
				switch i % 4 {
				case 0:
					_, err = l.Insert(tid, key)
				case 1:
					_, err = l.Delete(tid, key)
				case 2:
					_, err = l.Contains(tid, key)
				default:
					for j := range ops {
						ops[j] = ds.BatchOp{Kind: ds.BatchKind((i + j) % 3), Key: key + int64(3*j)}
					}
					l.ApplyBatch(tid, ops, res)
					for _, r := range res {
						if r.Err != nil {
							err = r.Err
						}
					}
				}
			}
			done <- err
		}(tid)
	}
	for i := 0; i < threads; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	vs := accessaware.Verify(a, threads, accessaware.Config{
		Entries:   []mem.Ref{l.Head(), l.Tail()},
		LinkWords: []int{ds.WNext},
	})
	for _, v := range vs {
		t.Errorf("violation: %s", v)
	}
}

// TestHarrisAccessAwareConcurrent repeats the check under concurrency,
// where traversals cross marked runs created by other threads.
func TestHarrisAccessAwareConcurrent(t *testing.T) {
	checkConcurrent(t, func(s smr.Scheme) (tracedList, error) { return harris.New(s, ds.Options{Phases: true}) })
}

// TestMichaelAccessAwareConcurrent: the same under Michael's list, whose
// finds also resume at the successor of every node they unlink.
func TestMichaelAccessAwareConcurrent(t *testing.T) {
	checkConcurrent(t, func(s smr.Scheme) (tracedList, error) { return michael.New(s, ds.Options{Phases: true}) })
}

// TestMichaelAccessAware: Michael's list also divides into phases (it is
// in the NBR paper's applicable class).
func TestMichaelAccessAware(t *testing.T) {
	a, s := tracingEnv(t, "ebr", 1)
	l, err := michael.New(s, ds.Options{Phases: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 30; k++ {
		l.Insert(0, k)
	}
	for k := int64(0); k < 30; k++ {
		l.Delete(0, k*2)
		l.Contains(0, k)
	}
	vs := accessaware.Verify(a, 1, accessaware.Config{
		Entries:   []mem.Ref{l.Head(), l.Tail()},
		LinkWords: []int{ds.WNext},
	})
	for _, v := range vs {
		t.Errorf("violation: %s", v)
	}
}

// TestViolationDetected: a synthetic trace that dereferences a node in a
// read phase without having obtained it in that phase must be rejected.
func TestViolationDetected(t *testing.T) {
	a := mem.NewArena(mem.Config{
		Slots: 16, PayloadWords: 2, Threads: 1, Trace: true,
	})
	entry, _ := a.Alloc(0)
	_ = a.MarkShared(entry)
	n, _ := a.Alloc(0)
	_ = a.MarkShared(n)
	_ = a.Store(0, entry, ds.WNext, uint64(n))

	tr := a.Tracer()
	tr.Reset()

	// Phase 1: legally obtain n through the entry point.
	tr.Annotate(0, ds.PhaseRead)
	_, _ = a.Load(0, entry, ds.WNext)
	_, _ = a.Load(0, n, 0)
	// Phase 2: a fresh read phase — the old permission must be void, so
	// dereferencing n without re-obtaining it breaks condition 1.
	tr.Annotate(0, ds.PhaseRead)
	_, _ = a.Load(0, n, 0)

	vs := accessaware.VerifyThread(0, tr.Events(0), accessaware.Config{
		Entries:   []mem.Ref{entry},
		LinkWords: []int{ds.WNext},
	})
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the stale-permission load", vs)
	}
}

// chain builds entry -> n1 -> n2 in a fresh tracing arena, every node
// shared, and resets the trace.
func chain(t *testing.T) (a *mem.Arena, entry, n1, n2 mem.Ref) {
	t.Helper()
	a = mem.NewArena(mem.Config{Slots: 16, PayloadWords: 2, Threads: 1, Trace: true})
	for _, r := range []*mem.Ref{&entry, &n1, &n2} {
		*r, _ = a.Alloc(0)
		_ = a.MarkShared(*r)
	}
	_ = a.Store(0, entry, ds.WNext, uint64(n1))
	_ = a.Store(0, n1, ds.WNext, uint64(n2))
	a.Tracer().Reset()
	return a, entry, n1, n2
}

func verifyChain(a *mem.Arena, entry mem.Ref) []accessaware.Violation {
	return accessaware.VerifyThread(0, a.Tracer().Events(0), accessaware.Config{
		Entries:   []mem.Ref{entry},
		LinkWords: []int{ds.WNext},
	})
}

// TestResumeKeepsLastPhase: a PhaseResume read phase starts with what the
// thread held when its last phase ended — a read phase's permitted set,
// or a write phase's sealed set — so walking on from a cached pred is
// legal.
func TestResumeKeepsLastPhase(t *testing.T) {
	a, entry, n1, n2 := chain(t)
	tr := a.Tracer()
	tr.Annotate(0, ds.PhaseRead)
	_, _ = a.Load(0, entry, ds.WNext) // permits n1
	tr.Annotate(0, ds.PhaseResume)    // read -> resume
	_, _ = a.Load(0, n1, ds.WNext)    // permits n2
	tr.Annotate(0, ds.PhaseWrite)
	_ = a.Store(0, n1, 0, 1)
	tr.Annotate(0, ds.PhaseResume) // write -> resume
	_, _ = a.Load(0, n2, 0)
	if vs := verifyChain(a, entry); len(vs) != 0 {
		t.Fatalf("violations = %v, want none: a resume keeps the last phase's permissions", vs)
	}
}

// TestResumeTwoPhasesBackDetected: a resume carries over only the phase
// just ended. A node reachable two phases earlier, but not obtained in
// the fresh read phase in between, stays unpermitted.
func TestResumeTwoPhasesBackDetected(t *testing.T) {
	a, entry, n1, _ := chain(t)
	tr := a.Tracer()
	tr.Annotate(0, ds.PhaseRead)
	_, _ = a.Load(0, entry, ds.WNext) // permits n1
	tr.Annotate(0, ds.PhaseWrite)
	_ = a.Store(0, n1, 0, 1)     // sealed: fine
	tr.Annotate(0, ds.PhaseRead) // a fresh phase that never reaches n1
	tr.Annotate(0, ds.PhaseResume)
	_, _ = a.Load(0, n1, 0) // violation
	if vs := verifyChain(a, entry); len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the load reached two phases back", vs)
	}
}

// TestResumeAfterReclaimDetected: a node this thread reclaimed between
// the two phases is not brought back by the resume.
func TestResumeAfterReclaimDetected(t *testing.T) {
	a, entry, n1, n2 := chain(t)
	tr := a.Tracer()
	tr.Annotate(0, ds.PhaseRead)
	_, _ = a.Load(0, entry, ds.WNext)
	_, _ = a.Load(0, n1, ds.WNext) // permits n2
	tr.Annotate(0, ds.PhaseWrite)
	_ = a.Store(0, entry, ds.WNext, uint64(n2)) // unlink n1
	_ = a.Retire(0, n1)
	_ = a.Reclaim(0, n1)
	tr.Annotate(0, ds.PhaseResume)
	_, _ = a.Load(0, n2, 0) // still permitted
	_, _ = a.Load(0, n1, 0) // violation
	if vs := verifyChain(a, entry); len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the load of the reclaimed node", vs)
	}
}

// TestWriteInReadPhaseDetected: shared writes during a read-only phase
// are rejected.
func TestWriteInReadPhaseDetected(t *testing.T) {
	a := mem.NewArena(mem.Config{
		Slots: 16, PayloadWords: 2, Threads: 1, Trace: true,
	})
	entry, _ := a.Alloc(0)
	_ = a.MarkShared(entry)
	tr := a.Tracer()
	tr.Reset()

	tr.Annotate(0, ds.PhaseRead)
	_ = a.Store(0, entry, 0, 42)

	vs := accessaware.VerifyThread(0, tr.Events(0), accessaware.Config{
		Entries: []mem.Ref{entry},
	})
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the read-phase store", vs)
	}
}

// TestWritePhaseUnsealedDetected: write-phase accesses to nodes obtained
// only after the read phase ended are rejected (condition 2/3).
func TestWritePhaseUnsealedDetected(t *testing.T) {
	a := mem.NewArena(mem.Config{
		Slots: 16, PayloadWords: 2, Threads: 1, Trace: true,
	})
	entry, _ := a.Alloc(0)
	_ = a.MarkShared(entry)
	n, _ := a.Alloc(0)
	_ = a.MarkShared(n)
	_ = a.Store(0, entry, ds.WNext, uint64(n))
	tr := a.Tracer()
	tr.Reset()

	tr.Annotate(0, ds.PhaseRead)
	_, _ = a.Load(0, entry, ds.WNext) // permits n
	tr.Annotate(0, ds.PhaseWrite)
	_ = a.Store(0, n, 0, 1) // sealed: fine
	tr.Annotate(0, ds.PhaseRead)
	tr.Annotate(0, ds.PhaseWrite) // sealed set now empty
	_ = a.Store(0, n, 0, 2)       // violation

	vs := accessaware.VerifyThread(0, tr.Events(0), accessaware.Config{
		Entries:   []mem.Ref{entry},
		LinkWords: []int{ds.WNext},
	})
	if len(vs) != 1 {
		t.Fatalf("violations = %v, want exactly the unsealed write", vs)
	}
}

// TestUntracedArena: verifying a non-tracing arena reports a setup error.
func TestUntracedArena(t *testing.T) {
	a := mem.NewArena(mem.Config{Slots: 8, PayloadWords: 1, Threads: 1})
	vs := accessaware.Verify(a, 1, accessaware.Config{})
	if len(vs) != 1 || vs[0].Thread != -1 {
		t.Fatalf("want a single setup violation, got %v", vs)
	}
}
