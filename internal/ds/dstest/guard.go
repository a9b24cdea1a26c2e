package dstest

import (
	"errors"
	"testing"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/workload"
)

// rollbackScheme wraps a scheme so a single-threaded test can make one
// barrier demand a rollback on every call — the neutralization ping-pong
// that only a step budget ends. Each field arms one barrier.
type rollbackScheme struct {
	smr.Scheme
	// failReadPtr fails every protected link read: no traversal gets
	// past its first node, so find itself exhausts its budget.
	failReadPtr bool
	// failRead, when >= 0, fails every plain Read of that payload word —
	// the validation after a traversal (of the next word: Contains's in
	// Michael's list, find's own in Harris's; of the key word: the skip
	// list's find and the tree's seek) — while the ReadPtr walk itself
	// succeeds.
	failRead int
	// failWritePtr fails every link write: an Insert rolls back after
	// its find, while it owns a node no other thread can reach.
	failWritePtr bool
	// failReserve fails every reservation: a Delete rolls back before
	// its marking CAS.
	failReserve bool
	// flaky, when non-nil, fails one protected link read in
	// rollbackOneIn, drawn from it: walks keep restarting but still make
	// progress.
	flaky *workload.RNG
}

// rollbackOneIn is flaky's failure rate: rare enough that a list walk
// rewound to its head still reaches a few hundred nodes in, frequent
// enough that a scan of a few hundred keys restarts several times.
const rollbackOneIn = 256

func (r *rollbackScheme) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	if r.failReadPtr || r.flaky != nil && r.flaky.Intn(rollbackOneIn) == 0 {
		return mem.NilRef, false
	}
	return r.Scheme.ReadPtr(tid, idx, src, w)
}

// SetLinkWords forwards link registration, so a link-tracking scheme
// (reference counting) still learns the structure's link words.
func (r *rollbackScheme) SetLinkWords(words []int) { ds.RegisterLinks(r.Scheme, words) }

func (r *rollbackScheme) Read(tid int, ref mem.Ref, w int) (uint64, bool) {
	if w == r.failRead {
		return 0, false
	}
	return r.Scheme.Read(tid, ref, w)
}

func (r *rollbackScheme) WritePtr(tid int, ref mem.Ref, w int, v mem.Ref) bool {
	if r.failWritePtr {
		return false
	}
	return r.Scheme.WritePtr(tid, ref, w, v)
}

func (r *rollbackScheme) Reserve(tid int, refs ...mem.Ref) bool {
	if r.failReserve {
		return false
	}
	return r.Scheme.Reserve(tid, refs...)
}

// GuardTripSet checks a set's behaviour under an endless rollback storm:
// every retry loop — the traversal's and each operation's own — must end
// in a typed ds.GuardError (an unbudgeted loop hangs the test instead),
// and an Insert that gives up must retire the nodes it allocated, so the
// arena's active count is back at its pre-op value. newSet builds the
// structure over the (wrapped) scheme it is given; validate is the
// payload word a Contains reads plainly during or after its walk
// (ds.WNext for the lists, ds.WKey for the skip list and the tree).
func GuardTripSet(tb testing.TB, env *Env, validate int, newSet func(smr.Scheme) (ds.Set, error)) {
	tb.Helper()
	rs := &rollbackScheme{Scheme: env.S, failRead: -1}
	set, err := newSet(rs)
	if err != nil {
		tb.Fatal(err)
	}
	// perInsert is how many nodes one successful insert keeps: one for
	// the lists, a leaf and a routing node for the external tree.
	before := env.A.Stats().Active()
	if ok, err := set.Insert(0, 1); err != nil || !ok {
		tb.Fatalf("insert(1) = %v, %v", ok, err)
	}
	perInsert := env.A.Stats().Active() - before
	wantTrip := func(what string, err error) {
		tb.Helper()
		var ge *ds.GuardError
		if !errors.As(err, &ge) {
			tb.Fatalf("%s under a rollback storm: error %v, want a *ds.GuardError", what, err)
		}
	}
	active := env.A.Stats().Active()
	wantActive := func(what string) {
		tb.Helper()
		if got := env.A.Stats().Active(); got != active {
			tb.Errorf("%s: %d active nodes, %d before the op: the failed op leaked its node", what, got, active)
		}
	}

	rs.failReadPtr = true
	_, err = set.Insert(0, 2)
	wantTrip("insert, find rolling back", err)
	wantActive("insert, find rolling back")
	rs.failReadPtr = false
	if testing.Short() {
		// Each remaining trip runs a full find per retry, 4M times over.
		return
	}

	rs.failWritePtr = true
	_, err = set.Insert(0, 2)
	wantTrip("insert, link write rolling back", err)
	wantActive("insert, link write rolling back")
	rs.failWritePtr = false

	rs.failRead = validate
	_, err = set.Contains(0, 1)
	wantTrip("contains, validation rolling back", err)
	rs.failRead = -1

	rs.failReserve = true
	_, err = set.Delete(0, 1)
	wantTrip("delete, reservation rolling back", err)
	rs.failReserve = false

	// The storm over, the structure serves again and nothing it did was
	// unsafe.
	if ok, err := set.Contains(0, 1); err != nil || !ok {
		tb.Fatalf("contains(1) after the storm = %v, %v", ok, err)
	}
	if ok, err := set.Insert(0, 2); err != nil || !ok {
		tb.Fatalf("insert(2) after the storm = %v, %v", ok, err)
	}
	active += perInsert
	wantActive("insert after the storm")
}
