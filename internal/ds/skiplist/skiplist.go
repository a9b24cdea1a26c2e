// Package skiplist implements a lock-free skip list set in the style of
// Fraser and Herlihy & Shavit (The Art of Multiprocessor Programming,
// chapter 14.4), expressed over the smr.Scheme barrier interface.
//
// The skip list matters to the paper's Section 5.1 discussion: the number
// of hazard pointers a traversal must hold is not a structure-independent
// constant — it grows with the tower height, i.e. with the logarithm of the
// data-structure size. This package keeps the height fixed (MaxHeight) so
// per-pointer schemes have a well-defined slot budget, but the protection
// rotation per level is still visible in the ReadPtr idx discipline.
//
// retire() placement: the thread whose CAS marks level 0 of a victim owns
// the deletion. It waits for the victim's tower to be built (see handOff),
// then re-runs find, which physically snips the victim from every level it
// is still linked at, and only then retires it — nodes are always
// unreachable before they are retired (Section 4.1 of the paper).
package skiplist

import (
	"fmt"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
)

// MaxHeight is the fixed tower-height cap. 12 levels comfortably cover the
// heap sizes the experiments use (2^12 expected nodes per top-level link).
const MaxHeight = 12

// Node payload layout: word 0 key, word 1 tower height, words 2..2+h-1 the
// per-level next references (level 0 at WLevel0).
const (
	WHeight = 1
	WLevel0 = 2
	// PayloadWords is the arena payload size this structure requires.
	PayloadWords = WLevel0 + MaxHeight
)

// The height word's bits above the height carry the tower hand-off
// between a node's inserter and the thread that owns its deletion.
const (
	heightMask = 0xff
	towerBuilt = 1 << 8 // the inserter's linkUpper has returned
	towerDead  = 1 << 9 // the owning deleter has marked level 0
)

// List is the lock-free skip list set.
type List struct {
	ds.Instr
	s          smr.Scheme
	head, tail mem.Ref
}

var _ ds.Set = (*List)(nil)

// New builds an empty skip list over scheme s. Sentinels are full-height.
func New(s smr.Scheme, opt ds.Options) (*List, error) {
	if s.Heap().Config().PayloadWords < PayloadWords {
		return nil, ds.ErrCorrupted
	}
	l := &List{Instr: ds.Instr{Opt: opt, A: s.Heap()}, s: s}
	links := make([]int, MaxHeight)
	for i := range links {
		links[i] = WLevel0 + i
	}
	ds.RegisterLinks(s, links)
	var err error
	if l.tail, err = ds.NewSentinel(s, 0, ds.KeyMax); err != nil {
		return nil, err
	}
	if !s.Write(0, l.tail, WHeight, MaxHeight) {
		return nil, ds.ErrCorrupted
	}
	if l.head, err = ds.NewSentinel(s, 0, ds.KeyMin); err != nil {
		return nil, err
	}
	if !s.Write(0, l.head, WHeight, MaxHeight) {
		return nil, ds.ErrCorrupted
	}
	for lv := 0; lv < MaxHeight; lv++ {
		if !s.WritePtr(0, l.head, WLevel0+lv, l.tail) {
			return nil, ds.ErrCorrupted
		}
	}
	return l, nil
}

// Name implements ds.Set.
func (l *List) Name() string { return "skiplist" }

const maxSteps = 1 << 22

// iterBatch bounds how many keys one Iterate operation bracket emits.
const iterBatch = 512

type status uint8

const (
	stOK status = iota
	stRestart
	// stCorrupt variants name the detection site for diagnostics.
	stCorruptRetry // outer retry loop exceeded maxSteps
	stCorruptWalk  // a level walk exceeded maxSteps (cycle)
	stCorruptNil   // a level edge dereferenced to nil
)

func corrupt(st status) bool { return st >= stCorruptRetry }

// corruptErr maps a corrupt status to its error: the step-budget variants
// are typed, counted guard trips (the structure declaring it cannot make
// progress), a nil edge is detected corruption.
func (l *List) corruptErr(op string, st status, steps, restarts uint64) error {
	switch st {
	case stCorruptRetry, stCorruptWalk:
		return l.GuardTrip("skiplist", op, steps, restarts)
	}
	return fmt.Errorf("%w: nil level edge", ds.ErrCorrupted)
}

// randomHeight draws a geometric tower height from a key-and-thread seeded
// xorshift, so runs are reproducible without a global RNG.
func randomHeight(tid int, key int64) int {
	x := uint64(key)*0x9e3779b97f4a7c15 + uint64(tid)*0xbf58476d1ce4e5b9 + 1
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h := 1
	for x&1 == 1 && h < MaxHeight {
		h++
		x >>= 1
	}
	return h
}

// find locates the window for key on every level: preds[l] is the last
// node with key < key at level l, succs[l] the first with key >= key.
// Marked nodes encountered on the way are physically snipped (this is the
// only place unlinking happens). found reports an unmarked level-0 match.
// maxNilRetries bounds restarts on a momentarily-nil level edge. The
// simulated wide CAS undoes stale link installs after the fact (see
// DESIGN.md, limitation 5); a reader can glimpse the in-flight state as a
// nil edge. Such glimpses are transient — a bounded number of restarts
// absorbs them, and persistence still escalates to detected corruption.
const maxNilRetries = 1 << 14

// Restart policy (the bounded-restart overhaul): losing a snip CAS no
// longer redescends the whole tower from the head — the walk re-reads
// pred's edge at the contended level and, when pred is still unmarked
// there, resumes the level walk from pred. Rollbacks and nil glimpses
// still rewind completely.
func (l *List) find(tid int, key int64, preds, succs *[MaxHeight]mem.Ref) (found bool, st status, steps, restarts uint64) {
	nilRetries := 0
retry:
	for retries := 0; ; retries++ {
		if retries > 0 {
			restarts++
		}
		if retries > maxSteps || steps > maxSteps {
			return l.record(false, stCorruptRetry, steps, restarts)
		}
		pred := l.head
		// Protection slots: 0 for pred, 1 for curr, 2 for succ, rotating
		// as the traversal advances.
		for lv := MaxHeight - 1; lv >= 0; lv-- {
			curr, ok := l.s.ReadPtr(tid, 1, pred, WLevel0+lv)
			if !ok {
				return l.record(false, stRestart, steps, restarts)
			}
			if lv == MaxHeight-1 {
				l.Hit(tid, ds.PointSearchHead, uint64(key))
			}
			curr = curr.WithoutMark()
		walk:
			for inner := 0; ; inner++ {
				if steps++; inner > maxSteps {
					return l.record(false, stCorruptWalk, steps, restarts)
				}
				if curr.IsNil() {
					if nilRetries++; nilRetries > maxNilRetries {
						return l.record(false, stCorruptNil, steps, restarts)
					}
					continue retry
				}
				succ, ok := l.s.ReadPtr(tid, 2, curr, WLevel0+lv)
				if !ok {
					return l.record(false, stRestart, steps, restarts)
				}
				for succ.Marked() {
					// curr is logically deleted at this level: snip it.
					swapped, ok := l.s.CASPtr(tid, pred, WLevel0+lv, curr, succ.WithoutMark())
					if !ok {
						return l.record(false, stRestart, steps, restarts)
					}
					if !swapped {
						// Contention: pred's edge at this level moved. Re-read
						// it; if pred is still unmarked here, resume the walk
						// at this level instead of redescending from the head.
						restarts++
						pn, ok := l.s.ReadPtr(tid, 1, pred, WLevel0+lv)
						if !ok {
							return l.record(false, stRestart, steps, restarts)
						}
						if pn.Marked() {
							// pred itself is deleted at this level; the
							// descent that chose it is stale.
							continue retry
						}
						curr = pn.WithoutMark()
						continue walk
					}
					curr = succ.WithoutMark()
					if curr.IsNil() {
						if nilRetries++; nilRetries > maxNilRetries {
							return l.record(false, stCorruptNil, steps, restarts)
						}
						continue retry
					}
					if succ, ok = l.s.ReadPtr(tid, 2, curr, WLevel0+lv); !ok {
						return l.record(false, stRestart, steps, restarts)
					}
				}
				ckey, ok := l.s.Read(tid, curr, ds.WKey)
				if !ok {
					return l.record(false, stRestart, steps, restarts)
				}
				l.Hit(tid, ds.PointSearchVisit, ckey)
				if int64(ckey) < key {
					pred = curr
					curr = succ.WithoutMark()
					continue
				}
				preds[lv] = pred
				succs[lv] = curr
				break
			}
		}
		skey, ok := l.s.Read(tid, succs[0], ds.WKey)
		if !ok {
			return l.record(false, stRestart, steps, restarts)
		}
		return l.record(int64(skey) == key, stOK, steps, restarts)
	}
}

// record folds one find's counters into the list's block and passes its
// result through. Traversals record at each return site; a deferred
// closure would put a closure and a deferred call on every op's path.
func (l *List) record(found bool, st status, steps, restarts uint64) (bool, status, uint64, uint64) {
	l.Trav.Record(steps, restarts)
	return found, st, steps, restarts
}

// guard folds a tripped iterator walk's counters into the list's block
// and builds the typed step-budget error.
func (l *List) guard(op string, steps, restarts uint64) error {
	l.Trav.Record(steps, restarts)
	return l.GuardTrip("skiplist", op, steps, restarts)
}

// Contains implements ds.Set. It uses the same snipping find; a wait-free
// traversal variant exists in the literature but the shared find keeps the
// access pattern uniform for the access-aware verifier.
func (l *List) Contains(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.containsAt(tid, key)
}

// containsAt is Contains without the bracket: the caller holds an open
// operation bracket for tid (per-op or a fused window). Scheme rollbacks
// rerun the op under the same maxSteps budget find has, so a rollback
// ping-pong fails typed instead of spinning inside a window a whole
// batch shares.
func (l *List) containsAt(tid int, key int64) (bool, error) {
	var preds, succs [MaxHeight]mem.Ref
	for retries := uint64(0); ; retries++ {
		if retries > maxSteps {
			return false, l.GuardTrip("skiplist", "contains", retries, retries)
		}
		l.Phase(tid, ds.PhaseRead)
		found, st, steps, restarts := l.find(tid, key, &preds, &succs)
		if corrupt(st) {
			return false, l.corruptErr("contains", st, steps, restarts)
		}
		if st == stRestart {
			continue
		}
		return found, nil
	}
}

// Insert implements ds.Set: link level 0 (the linearization point), then
// link the higher levels best-effort.
func (l *List) Insert(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.insertAt(tid, key)
}

// insertAt is Insert without the bracket.
func (l *List) insertAt(tid int, key int64) (bool, error) {
	height := randomHeight(tid, key)
	n, err := l.s.Alloc(tid)
	if err != nil {
		return false, err
	}
	l.s.Write(tid, n, ds.WKey, uint64(key))
	l.s.Write(tid, n, WHeight, uint64(height))
	var preds, succs [MaxHeight]mem.Ref
	for retries := uint64(0); ; retries++ {
		if retries > maxSteps {
			l.s.Retire(tid, n)
			return false, l.GuardTrip("skiplist", "insert", retries, retries)
		}
		l.Phase(tid, ds.PhaseRead)
		found, st, steps, restarts := l.find(tid, key, &preds, &succs)
		if corrupt(st) {
			l.s.Retire(tid, n) // n never became reachable; do not leak it
			return false, l.corruptErr("insert", st, steps, restarts)
		}
		if st == stRestart {
			continue
		}
		if found {
			l.s.Retire(tid, n) // lost the race: key already present
			return false, nil
		}
		linked := true
		for lv := 0; lv < height && linked; lv++ {
			// n is still local, so a failed link write is a rollback the
			// scheme demanded, not corruption: retry like any other.
			linked = l.s.WritePtr(tid, n, WLevel0+lv, succs[lv])
		}
		if !linked {
			continue
		}
		if !l.s.Reserve(tid, preds[0], succs[0]) {
			continue
		}
		l.Phase(tid, ds.PhaseWrite)
		if err := l.A.MarkShared(n); err != nil {
			return false, err
		}
		swapped, ok := l.s.CASPtr(tid, preds[0], WLevel0, succs[0], n)
		if !ok {
			continue
		}
		if !swapped {
			continue
		}
		// Linearized. Link the upper levels; abandon a level when the
		// window moved or the node got deleted meanwhile.
		l.linkUpper(tid, key, n, height, &preds, &succs)
		if !l.handOff(tid, n, towerBuilt) {
			return true, nil
		}
		return true, l.unlinkAndRetire(tid, key, n)
	}
}

// handOff sets bit in n's height word unless the other party of the tower
// hand-off already set its own, and reports whether the caller came second
// and so must unlink and retire n. linkUpper checks that n is unmarked and
// then links a level in two steps, so it can link n at a level after its
// deleter marked n and snipped it everywhere; a deleter that retired n
// without waiting for the tower would leave n reachable there after its
// reclamation. The last of the two to finish retires n after a snipping
// find, which then sees every level n was ever linked at. If the budget
// runs out (endless rollbacks) n is left unretired rather than retired
// while linked.
func (l *List) handOff(tid int, n mem.Ref, bit uint64) (last bool) {
	for tries := 0; tries <= maxSteps; tries++ {
		h, ok := l.s.Read(tid, n, WHeight)
		if !ok {
			continue
		}
		if h&(towerBuilt|towerDead) != 0 {
			return true
		}
		if swapped, ok := l.s.CAS(tid, n, WHeight, h, h|bit); ok && swapped {
			return false
		}
	}
	return false
}

// unlinkAndRetire snips n, holding key and marked at every level, from the
// levels it is still linked at, then retires it. Only a find that
// completes has snipped every level; one that rolled back is rerun, and if
// none completes n is left unretired rather than retired while linked.
func (l *List) unlinkAndRetire(tid int, key int64, n mem.Ref) error {
	var preds, succs [MaxHeight]mem.Ref
	for snips := uint64(0); ; snips++ {
		if snips > maxSteps {
			return l.GuardTrip("skiplist", "delete", snips, snips)
		}
		_, st, steps, restarts := l.find(tid, key, &preds, &succs)
		if corrupt(st) {
			return l.corruptErr("delete", st, steps, restarts)
		}
		if st == stOK {
			l.s.Retire(tid, n)
			return nil
		}
	}
}

// linkUpper links node n into levels 1..height-1. Failures re-find; if n
// becomes marked at level 0 the linking stops (the deleter owns it now).
// Each level's retries share the ops' maxSteps budget; exhausting it is a
// counted guard trip that abandons the level — and with it the rest of
// the tower — since the insert itself has already linearized.
func (l *List) linkUpper(tid int, key int64, n mem.Ref, height int, preds, succs *[MaxHeight]mem.Ref) {
	for lv := 1; lv < height; lv++ {
		for retries := uint64(0); ; retries++ {
			if retries > maxSteps {
				_ = l.GuardTrip("skiplist", "link", retries, retries)
				return
			}
			n0, ok := l.s.Read(tid, n, WLevel0)
			if !ok {
				return
			}
			if mem.Ref(n0).Marked() {
				return // deleted while linking; nothing more to do
			}
			cur, ok := l.s.Read(tid, n, WLevel0+lv)
			if !ok {
				return
			}
			if mem.Ref(cur).Marked() {
				return
			}
			if succs[lv].SameNode(n) || preds[lv].SameNode(n) {
				// A re-find can observe n already linked at this level
				// (a CAS we believed failed, or a helper's view of the
				// window); linking n to itself would create a cycle of
				// valid nodes that no validation catches.
				return
			}
			// Nor may n land in front of another node holding key (a
			// re-insert racing a delete whose snips are pending, or the
			// other way round): the deleter's find stops at the first
			// unmarked node holding key, so a victim linked behind n at
			// this level would be retired while still linked there.
			skey, ok := l.s.Read(tid, succs[lv], ds.WKey)
			if !ok || int64(skey) == key {
				return
			}
			if mem.Ref(cur) != succs[lv] {
				swapped, ok := l.s.CASPtr(tid, n, WLevel0+lv, mem.Ref(cur), succs[lv])
				if !ok {
					return
				}
				if !swapped {
					continue
				}
			}
			if !l.s.Reserve(tid, preds[lv], n, succs[lv]) {
				return
			}
			l.Phase(tid, ds.PhaseWrite)
			swapped, ok := l.s.CASPtr(tid, preds[lv], WLevel0+lv, succs[lv], n)
			if !ok {
				return
			}
			if swapped {
				break
			}
			found, st, _, _ := l.find(tid, key, preds, succs)
			if st != stOK || !found || succs[0] != n {
				return
			}
		}
	}
}

// Delete implements ds.Set: mark the victim's levels top-down (level 0
// last — that CAS is the linearization point and establishes retirement
// ownership), then re-find to snip it everywhere and retire.
func (l *List) Delete(tid int, key int64) (bool, error) {
	l.s.BeginOp(tid)
	defer l.s.EndOp(tid)
	return l.deleteAt(tid, key)
}

// deleteAt is Delete without the bracket.
func (l *List) deleteAt(tid int, key int64) (bool, error) {
	var preds, succs [MaxHeight]mem.Ref
	for retries := uint64(0); ; retries++ {
		if retries > maxSteps {
			return false, l.GuardTrip("skiplist", "delete", retries, retries)
		}
		l.Phase(tid, ds.PhaseRead)
		found, st, steps, restarts := l.find(tid, key, &preds, &succs)
		if corrupt(st) {
			return false, l.corruptErr("delete", st, steps, restarts)
		}
		if st == stRestart {
			continue
		}
		if !found {
			return false, nil
		}
		victim := succs[0]
		h, ok := l.s.Read(tid, victim, WHeight)
		if !ok {
			continue
		}
		height := int(h & heightMask)
		if height < 1 || height > MaxHeight {
			return false, ds.ErrCorrupted
		}
		if !l.s.Reserve(tid, preds[0], victim, succs[0]) {
			continue
		}
		l.Phase(tid, ds.PhaseWrite)
		// Mark upper levels top-down; others may be marking too. A
		// rollback restarts the delete: level 0 must not be marked while
		// one of the victim's upper levels is unmarked, or the snipping
		// find below would leave it linked there, retired.
		rolledBack := false
		for lv := height - 1; lv >= 1 && !rolledBack; lv-- {
			for {
				nxt, ok := l.s.Read(tid, victim, WLevel0+lv)
				if !ok {
					rolledBack = true
					break
				}
				r := mem.Ref(nxt)
				if r.Marked() {
					break
				}
				swapped, ok := l.s.CASPtr(tid, victim, WLevel0+lv, r, r.WithMark())
				if !ok {
					rolledBack = true
				}
				if !ok || swapped {
					break
				}
			}
		}
		if rolledBack {
			continue
		}
		// Level 0: the owning CAS.
		for {
			nxt, ok := l.s.Read(tid, victim, WLevel0)
			if !ok {
				break
			}
			r := mem.Ref(nxt)
			if r.Marked() {
				// Someone else linearized the delete.
				break
			}
			swapped, ok := l.s.CASPtr(tid, victim, WLevel0, r, r.WithMark())
			if !ok {
				break
			}
			if swapped {
				// We own the deletion: snip everywhere and retire once the
				// inserter's tower is built, or leave both to the inserter.
				if !l.handOff(tid, victim, towerDead) {
					return true, nil
				}
				return true, l.unlinkAndRetire(tid, key, victim)
			}
		}
		// Lost the marking race (or rolled back): re-find; if the key is
		// gone the competing delete won and ours returns false.
	}
}

var (
	_ ds.Iterator = (*List)(nil)
	_ ds.BatchSet = (*List)(nil)
	_ ds.StepSet  = (*List)(nil)
)

// StepOp implements ds.StepSet: one unbracketed op under a caller-held
// bracket. The skip list has no cross-op predecessor cache (its find
// re-derives the full preds/succs frontier per key), so batching buys
// bracket amortization only.
func (l *List) StepOp(tid int, kind ds.BatchKind, key int64) (bool, error) {
	switch kind {
	case ds.BatchContains:
		return l.containsAt(tid, key)
	case ds.BatchInsert:
		return l.insertAt(tid, key)
	case ds.BatchDelete:
		return l.deleteAt(tid, key)
	}
	return false, ds.ErrBadBatchOp
}

// ApplyBatch implements ds.BatchSet via the generic fused window.
func (l *List) ApplyBatch(tid int, ops []ds.BatchOp, res []ds.BatchResult) uint64 {
	return ds.RunBatch(l.s, l, tid, ops, res)
}

// Iterate implements ds.Iterator.
func (l *List) Iterate(tid int, fn func(key int64) bool) error {
	return l.IterateFrom(tid, ds.KeyMin, fn)
}

// IterateFrom implements ds.Iterator: an ascending barrier-based walk along
// level 0 that starts at a seek, not at the head. Emission is monotonic
// (each chunk only reports keys greater than the last emitted one), so
// interference rewinds the walk but never the emission cursor — no key is
// reported twice, and a quiescent list is swept in one pass. A range leg
// over [lo, hi) costs O(log n + keys in range).
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

// iterChunk emits up to iterBatch unmarked level-0 keys greater than
// *after inside one operation bracket. Every walk — the chunk's first, and
// every restart after a rollback or a nil glimpse — starts at a seek: find
// descends the tower to the level-0 window of *after+1 (snipping marked
// nodes on the way, as every op's find does), so no walk re-reads keys
// the scan has emitted or that lie below its lower bound. From there the
// walk skips marked level-0 nodes without snipping them.
func (l *List) iterChunk(tid int, after *int64, fn func(key int64) bool) (done bool, err error) {
	var preds, succs [MaxHeight]mem.Ref
	var steps, restarts uint64
	emitted := 0
	for {
		if steps++; steps > maxSteps {
			return false, l.guard("iterate", steps, restarts)
		}
		l.Phase(tid, ds.PhaseRead)
		// *after never holds KeyMax (the walk does not emit it), so the
		// seek key cannot overflow.
		_, st, fsteps, frestarts := l.find(tid, *after+1, &preds, &succs)
		if corrupt(st) {
			l.Trav.Record(steps, restarts)
			return false, l.corruptErr("iterate", st, fsteps, frestarts)
		}
		if st == stRestart {
			restarts++
			continue
		}
		// find leaves succs[0] in slot 1 when it is the first node it read
		// at level 0; the walk reads the next node into the other slot.
		sc := 1
		curr := succs[0]
	walk:
		for {
			if steps++; steps > maxSteps {
				return false, l.guard("iterate", steps, restarts)
			}
			if curr.IsNil() {
				// A transient wide-CAS glimpse (see find); re-seek.
				restarts++
				break walk
			}
			if curr == l.tail {
				l.Trav.Record(steps, restarts)
				return true, nil // sweep complete
			}
			sn := 3 - sc // alternate over {1, 2}: curr in sc, next in sn
			cn, ok := l.s.ReadPtr(tid, sn, curr, WLevel0)
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
			if !cn.Marked() && k > *after && k != ds.KeyMax {
				*after = k
				if !fn(k) {
					l.Trav.Record(steps, restarts)
					return true, nil
				}
				if emitted++; emitted >= iterBatch {
					l.Trav.Record(steps, restarts)
					return false, nil // re-bracket, then re-seek
				}
			}
			curr = cn.WithoutMark()
			sc = sn
		}
	}
}
