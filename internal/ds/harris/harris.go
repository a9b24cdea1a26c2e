// Package harris implements Harris's non-blocking linked-list set
// (Algorithm 1 in Appendix B of the paper), the data structure at the
// heart of the ERA theorem's lower bound.
//
// The defining property: search traverses *through* logically deleted
// (marked) nodes without unlinking them one at a time — when it finally
// finds its window it unlinks the whole marked run with one CAS. That is
// what makes the list fast, access-aware (Appendix D), and fundamentally
// incompatible with per-pointer protection schemes such as HP/HE/IBR
// (Appendix E): a traversal can hold a reference into a marked run whose
// nodes were already retired by their deleters and reclaimed.
//
// retire() placement follows the paper exactly: an insert that loses the
// key-already-present race retires its fresh node (line 34); a delete
// retires its victim after it is guaranteed unlinked (line 52). Nodes
// unlinked in bulk by search are retired by their respective deleters.
package harris

import (
	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
)

// List is Harris's lock-free linked-list set.
type List struct {
	ds.Instr
	s          smr.Scheme
	head, tail mem.Ref
}

var _ ds.Set = (*List)(nil)

// New builds an empty list over scheme s. The two sentinels are allocated
// on behalf of thread 0.
func New(s smr.Scheme, opt ds.Options) (*List, error) {
	l := &List{Instr: ds.Instr{Opt: opt, A: s.Heap()}, s: s}
	ds.RegisterLinks(s, []int{ds.WNext})
	var err error
	if l.tail, err = ds.NewSentinel(s, 0, ds.KeyMax); err != nil {
		return nil, err
	}
	if l.head, err = ds.NewSentinel(s, 0, ds.KeyMin); err != nil {
		return nil, err
	}
	if !s.WritePtr(0, l.head, ds.WNext, l.tail) {
		return nil, ds.ErrCorrupted
	}
	return l, nil
}

// Name implements ds.Set.
func (l *List) Name() string { return "harris" }

// Head returns the head sentinel (used by the adversary scripts).
func (l *List) Head() mem.Ref { return l.head }

// maxSteps bounds a single traversal. A healthy list can never be longer
// than the heap; only an unsafe scheme that recycled memory under a
// traversal can produce a cycle, and the bound turns that livelock into a
// detectable ds.ErrCorrupted.
const maxSteps = 1 << 22

// iterBatch bounds how many keys one Iterate operation bracket emits.
const iterBatch = 512

type status uint8

const (
	stOK status = iota
	stRestart
	stCorrupt
	stGuard  // traversal step budget exhausted
	stAnchor // the cached restart anchor went stale; rewind to head
)

// search traverses from anchor to the first unmarked node with key >= key,
// passing through marked nodes without unlinking them. It returns the
// window (pred, predNext, curr) where predNext is the value read from
// pred's next field (the expected value for an unlink CAS) plus the slot
// protecting pred; stRestart means the scheme demanded a rollback.
//
// anchor is l.head on a fresh traversal, or a validated cached pred on a
// bounded restart (protected in aslot). A non-head anchor whose next
// pointer reads back marked returns stAnchor: an unmarked pred is what the
// unlink CAS's correctness rests on (writing an unmarked next value into a
// marked node would resurrect it), so a stale anchor falls back to head.
//
// Protection slots rotate over {0,1,2}: pred is protected in sp, curr in
// sc, and each new target is read into the remaining slot. steps is the
// caller's operation-wide step budget.
func (l *List) search(tid int, key int64, anchor mem.Ref, anchorKey int64, aslot int, steps *uint64) (pred, predNext, curr mem.Ref, predKey int64, predSlot int, st status) {
	sp := aslot
	sc := (aslot + 1) % 3
	pred = anchor
	predKey = anchorKey
	pn, ok := l.s.ReadPtr(tid, sc, pred, ds.WNext)
	if !ok {
		return mem.NilRef, mem.NilRef, mem.NilRef, 0, 0, stRestart
	}
	if anchor == l.head {
		l.Hit(tid, ds.PointSearchHead, uint64(key))
	} else if pn.Marked() {
		return mem.NilRef, mem.NilRef, mem.NilRef, 0, 0, stAnchor
	}
	predNext = pn
	curr = pn.WithoutMark()
	for {
		if *steps++; *steps > maxSteps {
			return mem.NilRef, mem.NilRef, mem.NilRef, 0, 0, stGuard
		}
		if curr.IsNil() {
			return mem.NilRef, mem.NilRef, mem.NilRef, 0, 0, stCorrupt
		}
		l.Hit(tid, ds.PointSearchStep, uint64(curr))
		sn := 3 - sp - sc
		cn, ok := l.s.ReadPtr(tid, sn, curr, ds.WNext)
		if !ok {
			return mem.NilRef, mem.NilRef, mem.NilRef, 0, 0, stRestart
		}
		if cn.Marked() {
			// Logically deleted: traverse through without unlinking.
			ckey, ok := l.s.Read(tid, curr, ds.WKey)
			if !ok {
				return mem.NilRef, mem.NilRef, mem.NilRef, 0, 0, stRestart
			}
			l.Hit(tid, ds.PointSearchVisitMarked, ckey)
			curr = cn.WithoutMark()
			sc = sn
			continue
		}
		ckey, ok := l.s.Read(tid, curr, ds.WKey)
		if !ok {
			return mem.NilRef, mem.NilRef, mem.NilRef, 0, 0, stRestart
		}
		l.Hit(tid, ds.PointSearchVisit, ckey)
		if int64(ckey) >= key {
			return pred, predNext, curr, predKey, sp, stOK
		}
		pred, predNext = curr, cn
		predKey = int64(ckey)
		sp, sc = sc, sn
		curr = cn.WithoutMark()
	}
}

// find runs search until it returns a clean window: pred directly links
// to curr (unlinking any marked run in between, paper line 18) and curr is
// unmarked (lines 14-16).
//
// Restart policy (the bounded-restart overhaul): contention — losing the
// unlink CAS, or curr getting marked after the window was found — resumes
// the next search from the still-protected pred instead of the head, so a
// long chain is not re-walked inside the same epoch-pinning bracket.
// Scheme-requested rollbacks (stRestart) always rerun from the head: the
// operation entry point is the rollback checkpoint.
// A non-nil cu resumes from the batch cursor when valid and records the
// final validated pred back into it on success.
//
// A read phase that starts at a non-head anchor is annotated PhaseResume:
// the anchor was reached in the thread's previous phase, is still
// protected, and search re-validates it before walking on (the resume rule
// of package accessaware).
func (l *List) find(tid int, key int64, cu *ds.Cursor) (pred, curr mem.Ref, err error) {
	var steps, restarts uint64
	anchor, anchorKey, aslot := l.head, int64(ds.KeyMin), 0
	if p, k, s, ok := cu.Take(key); ok {
		anchor, anchorKey, aslot = p, k, s
	}
	rewind := func() {
		anchor, anchorKey, aslot = l.head, int64(ds.KeyMin), 0
		restarts++
	}
	resume := func(pred mem.Ref, predKey int64, pslot int) {
		anchor, anchorKey, aslot = pred, predKey, pslot
		restarts++
	}
	for {
		if steps++; steps > maxSteps {
			return mem.NilRef, mem.NilRef, l.guard("find", steps, restarts)
		}
		if anchor == l.head {
			l.Phase(tid, ds.PhaseRead)
		} else {
			l.Phase(tid, ds.PhaseResume)
		}
		pred, predNext, curr, predKey, pslot, st := l.search(tid, key, anchor, anchorKey, aslot, &steps)
		switch st {
		case stGuard:
			return mem.NilRef, mem.NilRef, l.guard("find", steps, restarts)
		case stCorrupt:
			l.Trav.Record(steps, restarts)
			return mem.NilRef, mem.NilRef, ds.ErrCorrupted
		case stRestart, stAnchor:
			rewind()
			continue
		}
		if predNext != curr {
			// Unlink the marked run between pred and curr.
			if !l.s.Reserve(tid, pred, curr) {
				rewind()
				continue
			}
			l.Phase(tid, ds.PhaseWrite)
			swapped, ok := l.s.CASPtr(tid, pred, ds.WNext, predNext, curr)
			if !ok {
				rewind()
				continue
			}
			if !swapped {
				resume(pred, predKey, pslot)
				continue
			}
		}
		// Validate that curr was not marked meanwhile (paper line 15/21).
		cn, ok := l.s.Read(tid, curr, ds.WNext)
		if !ok {
			rewind()
			continue
		}
		if mem.Ref(cn).Marked() {
			resume(pred, predKey, pslot)
			continue
		}
		cu.Keep(pred, predKey, pslot)
		l.Trav.Record(steps, restarts)
		return pred, curr, nil
	}
}

// guard folds a tripped traversal's counters into the list's block and
// builds the typed step-budget error. Traversals record their counters
// at each return site; a deferred closure would put a closure and a
// deferred call on every op's path.
func (l *List) guard(op string, steps, restarts uint64) error {
	l.Trav.Record(steps, restarts)
	return l.GuardTrip("harris", op, steps, restarts)
}

// Contains implements ds.Set (paper lines 23-26).
func (l *List) Contains(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.containsAt(tid, key, nil)
}

// containsAt is Contains without the bracket: the caller holds an open
// operation bracket for tid (per-op or a fused window).
func (l *List) containsAt(tid int, key int64, cu *ds.Cursor) (bool, error) {
	for retries := uint64(0); ; retries++ {
		if retries > maxSteps {
			return false, l.GuardTrip("harris", "contains", retries, retries)
		}
		_, curr, err := l.find(tid, key, cu)
		if err != nil {
			return false, err
		}
		cn, ok := l.s.Read(tid, curr, ds.WNext)
		if !ok {
			cu.Drop()
			continue
		}
		ckey, ok := l.s.Read(tid, curr, ds.WKey)
		if !ok {
			cu.Drop()
			continue
		}
		return !mem.Ref(cn).Marked() && int64(ckey) == key, nil
	}
}

// Insert implements ds.Set (paper lines 27-38).
func (l *List) Insert(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.insertAt(tid, key, nil)
}

// insertAt is Insert without the bracket.
func (l *List) insertAt(tid int, key int64, cu *ds.Cursor) (bool, error) {
	n, err := l.s.Alloc(tid)
	if err != nil {
		return false, err
	}
	l.s.Write(tid, n, ds.WKey, uint64(key))
	for retries := uint64(0); ; retries++ {
		if retries > maxSteps {
			l.s.Retire(tid, n)
			return false, l.GuardTrip("harris", "insert", retries, retries)
		}
		pred, curr, err := l.find(tid, key, cu)
		if err != nil {
			l.s.Retire(tid, n) // n never became reachable; do not leak it
			return false, err
		}
		ckey, ok := l.s.Read(tid, curr, ds.WKey)
		if !ok {
			cu.Drop()
			continue
		}
		if int64(ckey) == key {
			l.s.Retire(tid, n) // paper line 34
			return false, nil
		}
		if !l.s.WritePtr(tid, n, ds.WNext, curr) { // paper line 36
			cu.Drop()
			continue
		}
		if !l.s.Reserve(tid, pred, curr) {
			cu.Drop()
			continue
		}
		l.Phase(tid, ds.PhaseWrite)
		if err := l.A.MarkShared(n); err != nil {
			return false, err
		}
		swapped, ok := l.s.CASPtr(tid, pred, ds.WNext, curr, n) // paper line 37
		if !ok {
			cu.Drop()
			continue
		}
		if swapped {
			return true, nil
		}
	}
}

// Delete implements ds.Set (paper lines 39-53).
func (l *List) Delete(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.deleteAt(tid, key, nil)
}

// deleteAt is Delete without the bracket.
func (l *List) deleteAt(tid int, key int64, cu *ds.Cursor) (bool, error) {
	for retries := uint64(0); ; retries++ {
		if retries > maxSteps {
			return false, l.GuardTrip("harris", "delete", retries, retries)
		}
		pred, curr, err := l.find(tid, key, cu)
		if err != nil {
			return false, err
		}
		ckey, ok := l.s.Read(tid, curr, ds.WKey)
		if !ok {
			cu.Drop()
			continue
		}
		if int64(ckey) != key { // paper line 44
			return false, nil
		}
		cn, ok := l.s.ReadPtr(tid, 3, curr, ds.WNext) // paper line 46
		if !ok {
			cu.Drop()
			continue
		}
		if cn.Marked() {
			continue // someone else is deleting curr; re-find
		}
		succ := cn
		if !l.s.Reserve(tid, pred, curr, succ.WithoutMark()) {
			cu.Drop()
			continue
		}
		l.Phase(tid, ds.PhaseWrite)
		swapped, ok := l.s.CASPtr(tid, curr, ds.WNext, succ, succ.WithMark()) // paper line 48
		if !ok {
			cu.Drop()
		}
		if !ok || !swapped {
			continue
		}
		l.Hit(tid, ds.PointDeleteMarked, uint64(key))
		// The delete is now linearized: curr is logically deleted and
		// this thread owns its retirement. Unlink it (paper line 50), or
		// let a search do it (line 51), then retire (line 52).
		if swapped, ok := l.s.CASPtr(tid, pred, ds.WNext, curr, succ); !swapped {
			if !ok {
				cu.Drop()
			}
			if _, _, err := l.find(tid, key, cu); err != nil {
				return false, err
			}
		}
		l.s.Retire(tid, curr)
		return true, nil
	}
}

var (
	_ ds.Iterator = (*List)(nil)
	_ ds.BatchSet = (*List)(nil)
)

// ApplyBatch implements ds.BatchSet: one fused bracket window over the
// whole batch, run as a single chain.
func (l *List) ApplyBatch(tid int, ops []ds.BatchOp, res []ds.BatchResult) uint64 {
	w := smr.BeginOps(l.s, tid, 0)
	l.RunChain(tid, &w, ops, res, 0, nil)
	w.EndOps()
	return w.Rebrackets()
}

// RunChain executes one chain of a batch under the caller's open window
// w: the ops at indices first, next[first], ... until a negative link,
// or first..len(ops)-1 when next is nil. The hashmap hands each bucket
// its share of a larger batch this way. The validated-predecessor
// cursor is carried across the chain's consecutive ops, so a key-sorted
// chain walks the list once; it starts dropped and drops again at every
// bracket renewal (Step returning true), and the stAnchor rule already
// guards against a cached pred going marked between ops. The window is
// stepped between the chain's ops, not before its first: what separates
// two chains is the caller's step.
func (l *List) RunChain(tid int, w *smr.Window, ops []ds.BatchOp, res []ds.BatchResult, first int32, next []int32) {
	var cu ds.Cursor
	for i := first; i >= 0 && int(i) < len(ops); {
		if i != first && w.Step() {
			cu.Drop()
		}
		var ok bool
		var err error
		switch ops[i].Kind {
		case ds.BatchContains:
			ok, err = l.containsAt(tid, ops[i].Key, &cu)
		case ds.BatchInsert:
			ok, err = l.insertAt(tid, ops[i].Key, &cu)
		case ds.BatchDelete:
			ok, err = l.deleteAt(tid, ops[i].Key, &cu)
		default:
			err = ds.ErrBadBatchOp
		}
		res[i] = ds.BatchResult{OK: ok, Err: err}
		if next == nil {
			i++
		} else {
			i = next[i]
		}
	}
}

// Iterate implements ds.Iterator.
func (l *List) Iterate(tid int, fn func(key int64) bool) error {
	return l.IterateFrom(tid, ds.KeyMin, fn)
}

// IterateFrom implements ds.Iterator: an ascending barrier-based scan
// that, like search, traverses through marked runs without unlinking
// them. Emission is monotonic (each chunk only reports keys greater than
// the last emitted one), so interference rewinds the walk but never the
// emission cursor — no key is reported twice, and a quiescent list is
// swept in one pass. The walk starts at the head whatever lo is; the
// cursor starting below lo is what keeps the smaller keys unreported.
func (l *List) IterateFrom(tid int, lo int64, fn func(key int64) bool) error {
	after := ds.IterFloor(lo)
	for {
		l.s.BeginOp(tid)
		done, err := l.iterChunk(tid, &after, fn)
		l.s.EndOp(tid)
		if done || err != nil {
			return err
		}
	}
}

// iterChunk emits up to iterBatch unmarked keys greater than *after inside
// one operation bracket; rollbacks rewind the walk to the head.
func (l *List) iterChunk(tid int, after *int64, fn func(key int64) bool) (done bool, err error) {
	var steps, restarts uint64
	emitted := 0
	for {
		if steps++; steps > maxSteps {
			return false, l.guard("iterate", steps, restarts)
		}
		l.Phase(tid, ds.PhaseRead)
		sc := 1
		pn, ok := l.s.ReadPtr(tid, sc, l.head, ds.WNext)
		if !ok {
			restarts++
			continue
		}
		curr := pn.WithoutMark()
	walk:
		for {
			if steps++; steps > maxSteps {
				return false, l.guard("iterate", steps, restarts)
			}
			if curr.IsNil() {
				l.Trav.Record(steps, restarts)
				return false, ds.ErrCorrupted
			}
			sn := 3 - sc // alternate over {1, 2}: curr in sc, next in sn
			cn, ok := l.s.ReadPtr(tid, sn, curr, ds.WNext)
			if !ok {
				restarts++
				break walk
			}
			ckey, ok := l.s.Read(tid, curr, ds.WKey)
			if !ok {
				restarts++
				break walk
			}
			k := int64(ckey)
			if k == ds.KeyMax {
				l.Trav.Record(steps, restarts)
				return true, nil // tail sentinel: sweep complete
			}
			if !cn.Marked() && k > *after {
				*after = k
				if !fn(k) {
					l.Trav.Record(steps, restarts)
					return true, nil
				}
				if emitted++; emitted >= iterBatch {
					l.Trav.Record(steps, restarts)
					return false, nil // re-bracket before continuing
				}
			}
			curr = cn.WithoutMark()
			sc = sn
		}
	}
}
