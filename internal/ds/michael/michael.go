// Package michael implements Michael's lock-free linked-list set (Michael,
// SPAA 2002) — the hazard-pointer-compatible modification of Harris's list
// that the paper's Section 6 discussion refers to.
//
// The difference from Harris's list is exactly the one the ERA theorem
// turns on: a traversal never walks through a marked node. On meeting one
// it immediately unlinks that single node (restarting on contention), so
// at every step the traversal only holds references to nodes that a
// protect-and-validate read could certify as un-retired. This makes the
// list applicable to HP/HE/IBR — and slower under deletion-heavy loads,
// because every traversal does the deleters' unlinking work one CAS at a
// time (the effect EXP-MICHAEL measures).
package michael

import (
	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
)

// List is Michael's lock-free linked-list set.
type List struct {
	ds.Instr
	s          smr.Scheme
	head, tail mem.Ref
}

var _ ds.Set = (*List)(nil)

// New builds an empty list over scheme s.
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
func (l *List) Name() string { return "michael" }

// Head returns the head sentinel (used by verifiers and adversaries).
func (l *List) Head() mem.Ref { return l.head }

// Tail returns the tail sentinel.
func (l *List) Tail() mem.Ref { return l.tail }

const maxSteps = 1 << 22

// iterBatch bounds how many keys one Iterate operation bracket emits, so
// a full scan re-brackets periodically instead of pinning one reclamation
// epoch for the whole structure.
const iterBatch = 512

// find locates the window (pred, curr) for key: curr is the first unmarked
// node with key >= key and pred directly precedes it. Marked nodes are
// unlinked one at a time as they are met — never traversed through (the
// Michael discipline).
//
// Restart policy (the bounded-restart overhaul, ROADMAP item 5): losing
// the unlink CAS to a concurrent writer resumes the traversal from the
// validated cached pred instead of rewinding to the head, so contention
// anywhere on a long chain costs O(1) re-reads rather than O(chain)
// re-walks inside one epoch-pinning operation bracket. The resume is only
// legal because pred is revalidated on re-entry: its next pointer is
// re-read through the barrier and must be unmarked — an unmarked Michael
// node is still linked (marking strictly precedes unlinking), so a
// protect-and-validate scheme can certify everything reached from it. A
// marked pred may already be detached and falls back to the head. Scheme
// rollbacks (ok == false) always rewind to the head: per the smr contract
// the operation must drop every reference it obtained and restart from
// its entry point.
// A non-nil cu resumes from the batch cursor when valid and records the
// final validated pred back into it on success.
//
// Every read phase that starts anywhere but the head — at the cursor, at
// pred after a lost unlink, or at the unlinked node's successor after a
// won one — is annotated PhaseResume (the resume rule of package
// accessaware).
func (l *List) find(tid int, key int64, cu *ds.Cursor) (pred, curr mem.Ref, err error) {
	var steps, restarts uint64
	sp, sc := 0, 1
	pred = l.head
	predKey := int64(ds.KeyMin)
	if p, k, s, ok := cu.Take(key); ok {
		pred, predKey, sp, sc = p, k, s, (s+1)%3
	}
	rewind := func() {
		pred, predKey, sp, sc = l.head, int64(ds.KeyMin), 0, 1
		restarts++
	}
retry:
	for {
		if steps++; steps > maxSteps {
			return mem.NilRef, mem.NilRef, l.guard("find", steps, restarts)
		}
		if pred == l.head {
			l.Phase(tid, ds.PhaseRead)
		} else {
			l.Phase(tid, ds.PhaseResume)
		}
		pn, ok := l.s.ReadPtr(tid, sc, pred, ds.WNext)
		if !ok {
			rewind()
			continue
		}
		if pred == l.head {
			l.Hit(tid, ds.PointSearchHead, uint64(key))
		} else if pn.Marked() {
			// The cached pred was deleted behind our back; resuming from
			// it would traverse a possibly-detached node. Fall back.
			rewind()
			continue
		}
		curr = pn.WithoutMark()
		for {
			if steps++; steps > maxSteps {
				return mem.NilRef, mem.NilRef, l.guard("find", steps, restarts)
			}
			if curr.IsNil() {
				l.Trav.Record(steps, restarts)
				return mem.NilRef, mem.NilRef, ds.ErrCorrupted
			}
			sn := 3 - sp - sc
			cn, ok := l.s.ReadPtr(tid, sn, curr, ds.WNext)
			if !ok {
				rewind()
				continue retry
			}
			if cn.Marked() {
				// Unlink this single marked node before proceeding.
				if !l.s.Reserve(tid, pred, curr) {
					rewind()
					continue retry
				}
				l.Phase(tid, ds.PhaseWrite)
				swapped, ok := l.s.CASPtr(tid, pred, ds.WNext, curr, cn.WithoutMark())
				if !ok {
					rewind()
					continue retry
				}
				if !swapped {
					// Contention, not a rollback: pred is still protected
					// in slot sp. Resume from it (re-validating at the
					// top) instead of rewinding the whole chain.
					restarts++
					continue retry
				}
				l.Phase(tid, ds.PhaseResume)
				curr = cn.WithoutMark()
				sc = sn
				continue
			}
			ckey, ok := l.s.Read(tid, curr, ds.WKey)
			if !ok {
				rewind()
				continue retry
			}
			l.Hit(tid, ds.PointSearchVisit, ckey)
			if int64(ckey) >= key {
				cu.Keep(pred, predKey, sp)
				l.Trav.Record(steps, restarts)
				return pred, curr, nil
			}
			pred = curr
			predKey = int64(ckey)
			sp, sc = sc, sn
			curr = cn.WithoutMark()
		}
	}
}

// guard folds a tripped traversal's counters into the list's block and
// builds the typed step-budget error. Traversals record their counters
// at each return site; a deferred closure would put a closure and a
// deferred call on every op's path.
func (l *List) guard(op string, steps, restarts uint64) error {
	l.Trav.Record(steps, restarts)
	return l.GuardTrip("michael", op, steps, restarts)
}

// Contains implements ds.Set.
func (l *List) Contains(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.containsAt(tid, key, nil)
}

// containsAt is Contains without the bracket: the caller holds an open
// operation bracket for tid (per-op or a fused window). Scheme rollbacks
// rerun the op under the same maxSteps budget find has, so a rollback
// ping-pong fails typed instead of spinning inside a window a whole
// batch shares.
func (l *List) containsAt(tid int, key int64, cu *ds.Cursor) (bool, error) {
	for retries := uint64(0); ; retries++ {
		if retries > maxSteps {
			return false, l.GuardTrip("michael", "contains", retries, retries)
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

// Insert implements ds.Set.
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
			return false, l.GuardTrip("michael", "insert", retries, retries)
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
			l.s.Retire(tid, n)
			return false, nil
		}
		if !l.s.WritePtr(tid, n, ds.WNext, curr) {
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
		swapped, ok := l.s.CASPtr(tid, pred, ds.WNext, curr, n)
		if !ok {
			cu.Drop()
			continue
		}
		if swapped {
			return true, nil
		}
	}
}

// Delete implements ds.Set.
func (l *List) Delete(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.deleteAt(tid, key, nil)
}

// deleteAt is Delete without the bracket.
func (l *List) deleteAt(tid int, key int64, cu *ds.Cursor) (bool, error) {
	for retries := uint64(0); ; retries++ {
		if retries > maxSteps {
			return false, l.GuardTrip("michael", "delete", retries, retries)
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
		if int64(ckey) != key {
			return false, nil
		}
		cn, ok := l.s.ReadPtr(tid, 3, curr, ds.WNext)
		if !ok {
			cu.Drop()
			continue
		}
		if cn.Marked() {
			continue
		}
		succ := cn
		if !l.s.Reserve(tid, pred, curr, succ.WithoutMark()) {
			cu.Drop()
			continue
		}
		l.Phase(tid, ds.PhaseWrite)
		swapped, ok := l.s.CASPtr(tid, curr, ds.WNext, succ, succ.WithMark())
		if !ok {
			cu.Drop()
		}
		if !ok || !swapped {
			continue
		}
		// Linearized. Unlink (or let a traversal do it), then retire.
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
// bracket renewal (Step returning true), where hazard slots may be
// cleared and the pinned epoch released, so the cached pred is no longer
// certifiably protected. The window is stepped between the chain's ops,
// not before its first: what separates two chains is the caller's step.
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

// IterateFrom implements ds.Iterator: an ascending barrier-based scan.
// Emission is monotonic — each chunk only reports keys greater than the
// last emitted one — so interference degrades into a validated resume
// (rewind the walk, not the emission cursor) and a key can never be
// reported twice. A quiescent list is swept in one ascending pass. The
// walk starts at the head whatever lo is; the cursor starting below lo
// is what keeps the smaller keys unreported.
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
// one operation bracket. It follows the same traversal discipline as find
// (unlink marked nodes, never walk through them); any contention or
// rollback rewinds the walk to the head, which is harmless for emission
// because *after only moves forward.
func (l *List) iterChunk(tid int, after *int64, fn func(key int64) bool) (done bool, err error) {
	var steps, restarts uint64
	emitted := 0
	for {
		if steps++; steps > maxSteps {
			return false, l.guard("iterate", steps, restarts)
		}
		l.Phase(tid, ds.PhaseRead)
		sp, sc := 0, 1
		pred := l.head
		pn, ok := l.s.ReadPtr(tid, sc, pred, ds.WNext)
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
			sn := 3 - sp - sc
			cn, ok := l.s.ReadPtr(tid, sn, curr, ds.WNext)
			if !ok {
				restarts++
				break walk
			}
			if cn.Marked() {
				if !l.s.Reserve(tid, pred, curr) {
					restarts++
					break walk
				}
				l.Phase(tid, ds.PhaseWrite)
				swapped, ok := l.s.CASPtr(tid, pred, ds.WNext, curr, cn.WithoutMark())
				if !ok || !swapped {
					restarts++
					break walk
				}
				l.Phase(tid, ds.PhaseResume)
				curr = cn.WithoutMark()
				sc = sn
				continue
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
			if k > *after {
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
			pred = curr
			sp, sc = sc, sn
			curr = cn.WithoutMark()
		}
	}
}
