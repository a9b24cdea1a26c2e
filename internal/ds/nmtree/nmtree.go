// Package nmtree implements the Natarajan & Mittal lock-free external
// binary search tree (PPoPP 2014) — reference [33] of the ERA paper —
// expressed over the smr.Scheme barrier interface.
//
// The tree is external: internal nodes route, leaves store keys. Deletion
// is edge-based: the deleter FLAGs the edge to the victim leaf (the mark
// bit of the edge's mem.Ref), TAGs the edge to the sibling (the aux bit),
// and then splices the sibling up with a single CAS on the ancestor's
// edge. Concurrent deletions stack: one ancestor CAS can complete several
// of them at once, detaching a chain of internal nodes together with their
// flagged victim leaves.
//
// Why it matters for the ERA theorem: like Harris's list, searches pass
// through flagged and tagged edges without helping, so a traversal can
// stand inside a detached (retired, possibly reclaimed) region — the
// access pattern that defeats protect-and-validate schemes (HP, HE, IBR).
//
// retire() placement: the thread whose ancestor CAS detaches a chain owns
// the retirement of every detached internal node and flagged leaf; other
// deleters observe their victim gone after a re-seek and return without
// retiring, so each node is retired exactly once and only after it is
// unreachable (Section 4.1 of the paper).
package nmtree

import (
	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
)

// Node payload layout.
const (
	// WKey is the routing/stored key.
	WKey = ds.WKey
	// WLeft and WRight are the child edges (mem.Ref values; the mark bit
	// is the Natarajan-Mittal FLAG, the aux bit the TAG).
	WLeft  = 1
	WRight = 2
	// WIsLeaf distinguishes leaves (1) from internal nodes (0); immutable
	// after publication.
	WIsLeaf = 3
	// PayloadWords is the arena payload size this structure requires.
	PayloadWords = 4
)

// Sentinel keys: all user keys must be strictly below inf1.
const (
	inf1 = ds.KeyMax - 1
	inf2 = ds.KeyMax
)

// Tree is the Natarajan-Mittal external BST.
type Tree struct {
	ds.Instr
	s smr.Scheme
	// root ("R") and child ("S") sentinel internal nodes.
	root, child mem.Ref
}

var _ ds.Set = (*Tree)(nil)

// New builds an empty tree over scheme s: R(inf2) -> {S(inf1), leaf(inf2)},
// S(inf1) -> {leaf(inf1), leaf(inf2)}.
func New(s smr.Scheme, opt ds.Options) (*Tree, error) {
	if s.Heap().Config().PayloadWords < PayloadWords {
		return nil, ds.ErrCorrupted
	}
	t := &Tree{Instr: ds.Instr{Opt: opt, A: s.Heap()}, s: s}
	ds.RegisterLinks(s, []int{WLeft, WRight})
	mk := func(key int64, leaf bool) (mem.Ref, error) {
		r, err := s.Alloc(0)
		if err != nil {
			return mem.NilRef, err
		}
		isLeaf := uint64(0)
		if leaf {
			isLeaf = 1
		}
		if !s.Write(0, r, WKey, uint64(key)) || !s.Write(0, r, WIsLeaf, isLeaf) {
			return mem.NilRef, ds.ErrCorrupted
		}
		if err := s.Heap().MarkShared(r); err != nil {
			return mem.NilRef, err
		}
		return r, nil
	}
	leafInf1, err := mk(inf1, true)
	if err != nil {
		return nil, err
	}
	leafInf2a, err := mk(inf2, true)
	if err != nil {
		return nil, err
	}
	leafInf2b, err := mk(inf2, true)
	if err != nil {
		return nil, err
	}
	if t.child, err = mk(inf1, false); err != nil {
		return nil, err
	}
	if t.root, err = mk(inf2, false); err != nil {
		return nil, err
	}
	if !s.WritePtr(0, t.child, WLeft, leafInf1) ||
		!s.WritePtr(0, t.child, WRight, leafInf2a) ||
		!s.WritePtr(0, t.root, WLeft, t.child) ||
		!s.WritePtr(0, t.root, WRight, leafInf2b) {
		return nil, ds.ErrCorrupted
	}
	return t, nil
}

// Name implements ds.Set.
func (t *Tree) Name() string { return "nmtree" }

const maxSteps = 1 << 22

type status uint8

const (
	stOK status = iota
	stRestart
	stCorrupt
)

// childWord picks the edge word for key at an internal node with nodeKey.
func childWord(key int64, nodeKey int64) int {
	if key < nodeKey {
		return WLeft
	}
	return WRight
}

// seekRec is the paper's seek record: ancestor's edge to successor was the
// last clean (untagged) edge on the path; parent's edge leads to the leaf.
type seekRec struct {
	ancestor  mem.Ref
	ancWord   int
	ancEdge   mem.Ref // exact edge value read at ancestor (CAS expected)
	successor mem.Ref
	parent    mem.Ref
	leaf      mem.Ref // bare leaf reference
	leafKey   int64
}

// seek descends from the root to the leaf on key's search path, tracking
// the last untagged edge (ancestor -> successor). It never helps: flagged
// and tagged edges are traversed as-is, which is what lets it stand inside
// detached regions. steps is the caller's operation-wide traversal budget;
// a re-seek here is already bounded (O(height), not O(structure)), so the
// bounded-restart overhaul's cached-pred resume does not apply — the
// counters are what the overhaul adds.
func (t *Tree) seek(tid int, key int64, r *seekRec, steps *uint64) status {
	r.ancestor = t.root
	r.ancWord = WLeft
	ancEdge, ok := t.s.ReadPtr(tid, 0, t.root, WLeft)
	if !ok {
		return stRestart
	}
	t.Hit(tid, ds.PointSearchHead, uint64(key))
	r.ancEdge = ancEdge
	r.successor = ancEdge.Bare()
	r.parent = r.successor
	cur := r.successor

	// Descend from S's child.
	parentEdge, ok := t.s.ReadPtr(tid, 1, cur, childWord(key, inf1))
	if !ok {
		return stRestart
	}
	prev := cur
	prevWord := childWord(key, inf1)
	cur = parentEdge.Bare()

	for {
		if *steps++; *steps > maxSteps {
			return stCorrupt
		}
		if cur.IsNil() {
			// A nil edge is the in-flight state of the simulated wide
			// CAS's undo (DESIGN.md, limitation 5): transient, so restart
			// the operation; the callers' bounded retry loops escalate
			// persistence to detected corruption.
			t.s.Stats().Restarts.Add(1)
			return stRestart
		}
		t.Hit(tid, ds.PointSearchStep, uint64(cur))
		isLeaf, ok := t.s.Read(tid, cur, WIsLeaf)
		if !ok {
			return stRestart
		}
		ckey, ok := t.s.Read(tid, cur, WKey)
		if !ok {
			return stRestart
		}
		if isLeaf == 1 {
			t.Hit(tid, ds.PointSearchVisit, ckey)
			r.parent = prev
			r.leaf = cur
			r.leafKey = int64(ckey)
			return stOK
		}
		// Advance. The edge prev -> cur updates (ancestor, successor)
		// when it is untagged.
		if !parentEdge.Aux() {
			r.ancestor = prev
			r.ancWord = prevWord
			r.ancEdge = parentEdge
			r.successor = cur
		}
		w := childWord(key, int64(ckey))
		nextEdge, ok := t.s.ReadPtr(tid, 2, cur, w)
		if !ok {
			return stRestart
		}
		prev, prevWord, parentEdge = cur, w, nextEdge
		cur = nextEdge.Bare()
	}
}

// cleanup attempts to complete the deletion pending at r's parent: TAG the
// keep edge, then splice it up over the ancestor's edge. Returns whether
// the splice CAS succeeded; the successful thread retires the whole
// detached chain. ok=false reports a scheme rollback.
func (t *Tree) cleanup(tid int, key int64, r *seekRec) (done bool, ok bool) {
	leafWord := childWord(key, keyOf(t, tid, r.parent))
	sibWord := WLeft + WRight - leafWord

	le, rok := t.s.Read(tid, r.parent, leafWord)
	if !rok {
		return false, false
	}
	keepWord := sibWord
	if !mem.Ref(le).Marked() {
		se, rok := t.s.Read(tid, r.parent, sibWord)
		if !rok {
			return false, false
		}
		if !mem.Ref(se).Marked() {
			// No deletion is pending at this parent (it resolved between
			// the caller's check and now): nothing to clean. Flags are
			// never cleared in place — they resolve only by detaching the
			// parent — so a live parent with a pending deletion always
			// shows the flag here.
			return false, true
		}
		// The flag is on the sibling edge: keep the key-side child.
		keepWord = leafWord
	}
	// TAG the keep edge (preserving any carried flag).
	var keep mem.Ref
	for i := 0; ; i++ {
		if i > maxSteps {
			return false, false
		}
		kv, rok := t.s.Read(tid, r.parent, keepWord)
		if !rok {
			return false, false
		}
		keep = mem.Ref(kv)
		if keep.Aux() {
			break
		}
		swapped, rok := t.s.CASPtr(tid, r.parent, keepWord, keep, keep.WithAux())
		if !rok {
			return false, false
		}
		if swapped {
			keep = keep.WithAux()
			break
		}
	}
	if !t.s.Reserve(tid, r.ancestor, r.parent) {
		return false, false
	}
	t.Phase(tid, ds.PhaseWrite)
	// Splice: the keep edge's target replaces successor, carrying the
	// keep edge's flag but not its tag.
	swapped, rok := t.s.CASPtr(tid, r.ancestor, r.ancWord, r.ancEdge, keep.WithoutAux())
	if !rok {
		return false, false
	}
	if !swapped {
		return false, true
	}
	// We detached the chain successor..parent: retire it.
	if !t.retireChain(tid, r, keepWord) {
		return false, false
	}
	return true, true
}

// keyOf reads a node's key without rollback handling (keys are immutable;
// a stale read is repaired by the caller's retry loop).
func keyOf(t *Tree, tid int, r mem.Ref) int64 {
	k, _ := t.s.Read(tid, r, WKey)
	return int64(k)
}

// retireChain retires every node detached by a successful splice: the
// internal nodes from successor down to parent and their flagged victim
// leaves. The child kept by the splice (keepWord at parent) stays alive.
// Intermediate chain nodes have exactly one internal child (the chain
// continuation); their other child is a flagged victim leaf.
//
// The chain is exclusively owned (our CAS detached it) and the nodes are
// still active until we retire them, so the walk reads the arena raw: no
// barrier, no rollback — a mid-walk abort would leak part of the chain.
// Stale helpers may still set aux bits on these edges concurrently; the
// walk keys off the immutable WIsLeaf word, not the control bits.
func (t *Tree) retireChain(tid int, r *seekRec, parentKeepWord int) bool {
	cur := r.successor
	for i := 0; ; i++ {
		if i > maxSteps {
			return false
		}
		if cur.SameNode(r.parent) {
			victimWord := WLeft + WRight - parentKeepWord
			ve, err := t.A.Load(tid, cur, victimWord)
			if err != nil {
				return false
			}
			if v := mem.Ref(ve).Bare(); !v.IsNil() {
				t.s.Retire(tid, v)
			}
			t.s.Retire(tid, cur)
			return true
		}
		le, err := t.A.Load(tid, cur, WLeft)
		if err != nil {
			return false
		}
		re, err := t.A.Load(tid, cur, WRight)
		if err != nil {
			return false
		}
		l, rr := mem.Ref(le).Bare(), mem.Ref(re).Bare()
		if l.IsNil() || rr.IsNil() {
			return false
		}
		lLeaf, err := t.A.Load(tid, l, WIsLeaf)
		if err != nil {
			return false
		}
		var victim, next mem.Ref
		if lLeaf == 1 {
			victim, next = l, rr
		} else {
			victim, next = rr, l
		}
		t.s.Retire(tid, victim)
		t.s.Retire(tid, cur)
		cur = next
	}
}

// Contains implements ds.Set: a plain seek.
func (t *Tree) Contains(tid int, key int64) (bool, error) {
	t.s.BeginOp(tid)
	defer t.s.EndOp(tid)
	return t.containsAt(tid, key)
}

// containsAt is Contains without the bracket: the caller holds an open
// operation bracket for tid (per-op or a fused window).
func (t *Tree) containsAt(tid int, key int64) (bool, error) {
	var r seekRec
	var steps, restarts uint64
	if err := t.reseek(tid, "contains", key, &r, &steps, &restarts); err != nil {
		return false, err
	}
	t.Trav.Record(steps, restarts)
	return r.leafKey == key, nil
}

// reseek runs an operation's next seek: it retries the seek's rollbacks,
// counted as restarts, until one reaches a leaf, and returns the typed
// guard error once the op's step budget is spent. Every attempt costs a
// step, so a rollback storm that fails before the seek's first node
// still exhausts the budget.
func (t *Tree) reseek(tid int, op string, key int64, r *seekRec, steps, restarts *uint64) error {
	for {
		if *steps++; *steps > maxSteps {
			return t.guard(op, *steps, *restarts)
		}
		t.Phase(tid, ds.PhaseRead)
		switch t.seek(tid, key, r, steps) {
		case stOK:
			return nil
		case stCorrupt:
			return t.guard(op, *steps, *restarts)
		}
		*restarts++
	}
}

// guard folds a tripped operation's counters into the tree's block and
// builds the typed step-budget error. Operations record their counters at
// each return site; a deferred closure would put a closure and a deferred
// call on every op's path.
func (t *Tree) guard(op string, steps, restarts uint64) error {
	t.Trav.Record(steps, restarts)
	return t.GuardTrip("nmtree", op, steps, restarts)
}

// discard retires the two nodes of an insert that gives up: no other
// thread ever reached them.
func (t *Tree) discard(tid int, leaf, internal mem.Ref) {
	t.s.Retire(tid, leaf)
	t.s.Retire(tid, internal)
}

// Insert implements ds.Set: replace the reached leaf with a fresh internal
// node routing to {new leaf, old leaf}.
func (t *Tree) Insert(tid int, key int64) (bool, error) {
	t.s.BeginOp(tid)
	defer t.s.EndOp(tid)
	return t.insertAt(tid, key)
}

// insertAt is Insert without the bracket.
func (t *Tree) insertAt(tid int, key int64) (bool, error) {
	if key >= inf1 {
		return false, ds.ErrCorrupted // sentinel key space
	}
	newLeaf, err := t.s.Alloc(tid)
	if err != nil {
		return false, err
	}
	t.s.Write(tid, newLeaf, WKey, uint64(key))
	t.s.Write(tid, newLeaf, WIsLeaf, 1)
	newInt, err := t.s.Alloc(tid)
	if err != nil {
		t.s.Retire(tid, newLeaf)
		return false, err
	}
	t.s.Write(tid, newInt, WIsLeaf, 0)

	var r seekRec
	var steps, restarts uint64
	for {
		if err := t.reseek(tid, "insert", key, &r, &steps, &restarts); err != nil {
			t.discard(tid, newLeaf, newInt)
			return false, err
		}
		if r.leafKey == key {
			t.discard(tid, newLeaf, newInt)
			t.Trav.Record(steps, restarts)
			return false, nil
		}
		// Route: internal key is the larger of the two; smaller goes left.
		intKey, left, right := int64(r.leafKey), r.leaf, newLeaf
		if key > r.leafKey {
			intKey, left, right = key, r.leaf, newLeaf
		} else {
			intKey, left, right = r.leafKey, newLeaf, r.leaf
		}
		if !t.s.Write(tid, newInt, WKey, uint64(intKey)) ||
			!t.s.WritePtr(tid, newInt, WLeft, left) ||
			!t.s.WritePtr(tid, newInt, WRight, right) {
			continue
		}
		leafWord := childWord(key, keyOf(t, tid, r.parent))
		if !t.s.Reserve(tid, r.parent, r.leaf) {
			continue
		}
		t.Phase(tid, ds.PhaseWrite)
		if err := t.A.MarkShared(newLeaf); err != nil {
			return false, err
		}
		if err := t.A.MarkShared(newInt); err != nil {
			return false, err
		}
		swapped, ok := t.s.CASPtr(tid, r.parent, leafWord, r.leaf, newInt)
		if !ok {
			continue
		}
		if swapped {
			t.Trav.Record(steps, restarts)
			return true, nil
		}
		// Failed: if a deletion is pending at this edge, help it.
		ev, ok := t.s.Read(tid, r.parent, leafWord)
		if !ok {
			continue
		}
		edge := mem.Ref(ev)
		if edge.Bare().SameNode(r.leaf) && (edge.Marked() || edge.Aux()) {
			if _, ok := t.cleanup(tid, key, &r); !ok {
				continue
			}
		}
	}
}

// Delete implements ds.Set: INJECTION (flag the victim edge), then
// CLEANUP (tag the keep edge and splice), helping and retrying as needed.
func (t *Tree) Delete(tid int, key int64) (bool, error) {
	t.s.BeginOp(tid)
	defer t.s.EndOp(tid)
	return t.deleteAt(tid, key)
}

// deleteAt is Delete without the bracket.
func (t *Tree) deleteAt(tid int, key int64) (bool, error) {
	var r seekRec
	injected := false
	var victim mem.Ref
	var steps, restarts uint64
	for {
		if err := t.reseek(tid, "delete", key, &r, &steps, &restarts); err != nil {
			return false, err
		}
		if !injected {
			if r.leafKey != key {
				t.Trav.Record(steps, restarts)
				return false, nil
			}
			leafWord := childWord(key, keyOf(t, tid, r.parent))
			if !t.s.Reserve(tid, r.parent, r.leaf) {
				continue
			}
			t.Phase(tid, ds.PhaseWrite)
			swapped, ok := t.s.CASPtr(tid, r.parent, leafWord, r.leaf, r.leaf.WithMark())
			if !ok {
				continue
			}
			if !swapped {
				// Help any deletion pending at this edge, then retry.
				ev, ok := t.s.Read(tid, r.parent, leafWord)
				if !ok {
					continue
				}
				edge := mem.Ref(ev)
				if edge.Bare().SameNode(r.leaf) && (edge.Marked() || edge.Aux()) {
					if _, ok := t.cleanup(tid, key, &r); !ok {
						continue
					}
				}
				continue
			}
			t.Hit(tid, ds.PointDeleteMarked, uint64(key))
			injected = true
			victim = r.leaf
			if done, ok := t.cleanup(tid, key, &r); ok && done {
				t.Trav.Record(steps, restarts)
				return true, nil
			}
			continue
		}
		// CLEANUP mode: if our flagged victim is gone, someone else's
		// splice completed our deletion.
		if !r.leaf.SameNode(victim) {
			t.Trav.Record(steps, restarts)
			return true, nil
		}
		if done, ok := t.cleanup(tid, key, &r); ok && done {
			t.Trav.Record(steps, restarts)
			return true, nil
		}
	}
}

// iterBatch bounds how many keys one Iterate operation bracket emits.
const iterBatch = 512

// iterWalk outcomes.
const (
	itOK      = iota // subtree fully swept
	itStop           // fn returned false
	itPause          // chunk budget reached; re-bracket and resume
	itRestart        // rollback or transient nil glimpse; rewind from root
	itGuard          // traversal step budget exhausted
)

var (
	_ ds.Iterator = (*Tree)(nil)
	_ ds.BatchSet = (*Tree)(nil)
	_ ds.StepSet  = (*Tree)(nil)
)

// StepOp implements ds.StepSet: one unbracketed op under a caller-held
// bracket. Seeks restart from the root, so batching buys bracket
// amortization only.
func (t *Tree) StepOp(tid int, kind ds.BatchKind, key int64) (bool, error) {
	switch kind {
	case ds.BatchContains:
		return t.containsAt(tid, key)
	case ds.BatchInsert:
		return t.insertAt(tid, key)
	case ds.BatchDelete:
		return t.deleteAt(tid, key)
	}
	return false, ds.ErrBadBatchOp
}

// ApplyBatch implements ds.BatchSet via the generic fused window.
func (t *Tree) ApplyBatch(tid int, ops []ds.BatchOp, res []ds.BatchResult) uint64 {
	return ds.RunBatch(t.s, t, tid, ops, res)
}

// Iterate implements ds.Iterator.
func (t *Tree) Iterate(tid int, fn func(key int64) bool) error {
	return t.IterateFrom(tid, ds.KeyMin, fn)
}

// IterateFrom implements ds.Iterator: an in-order barrier-based DFS over
// the leaves. Emission is monotonic — only leaf keys greater than the
// cursor are reported, and left subtrees that cannot contain such keys are
// pruned — so interference rewinds the DFS to the root but never the
// cursor: no key is reported twice, and a quiescent tree is swept in one
// pass. The cursor starts below lo, which keeps the smaller keys
// unreported.
func (t *Tree) IterateFrom(tid int, lo int64, fn func(key int64) bool) error {
	after := ds.IterFloor(lo)
	for {
		t.s.BeginOp(tid)
		done, err := t.iterChunk(tid, &after, fn)
		t.s.EndOp(tid)
		if done || err != nil {
			return err
		}
	}
}

// iterChunk emits up to iterBatch leaf keys greater than *after inside one
// operation bracket.
func (t *Tree) iterChunk(tid int, after *int64, fn func(key int64) bool) (done bool, err error) {
	var steps, restarts uint64
	emitted := 0
	for {
		if steps++; steps > maxSteps {
			return false, t.guard("iterate", steps, restarts)
		}
		t.Phase(tid, ds.PhaseRead)
		switch t.iterWalk(tid, t.root, after, fn, &steps, &emitted) {
		case itOK, itStop:
			t.Trav.Record(steps, restarts)
			return true, nil
		case itPause:
			t.Trav.Record(steps, restarts)
			return false, nil
		case itGuard:
			return false, t.guard("iterate", steps, restarts)
		case itRestart:
			restarts++
		}
	}
}

// iterWalk recursively sweeps cur's subtree in key order. An internal
// node's left subtree holds keys strictly below its routing key, so it is
// skipped whenever it cannot contain a key above the cursor; the right
// subtree is always descended. Flagged and tagged edges are traversed
// as-is, like seek.
func (t *Tree) iterWalk(tid int, cur mem.Ref, after *int64, fn func(key int64) bool, steps *uint64, emitted *int) int {
	cur = cur.Bare()
	if cur.IsNil() {
		return itRestart // transient wide-CAS glimpse (see seek)
	}
	if *steps++; *steps > maxSteps {
		return itGuard
	}
	isLeaf, ok := t.s.Read(tid, cur, WIsLeaf)
	if !ok {
		return itRestart
	}
	kv, ok := t.s.Read(tid, cur, WKey)
	if !ok {
		return itRestart
	}
	k := int64(kv)
	if isLeaf == 1 {
		if k > *after && k < inf1 {
			*after = k
			if !fn(k) {
				return itStop
			}
			if *emitted++; *emitted >= iterBatch {
				return itPause
			}
		}
		return itOK
	}
	if *after+1 < k {
		le, ok := t.s.ReadPtr(tid, 1, cur, WLeft)
		if !ok {
			return itRestart
		}
		if st := t.iterWalk(tid, le, after, fn, steps, emitted); st != itOK {
			return st
		}
	}
	re, ok := t.s.ReadPtr(tid, 2, cur, WRight)
	if !ok {
		return itRestart
	}
	return t.iterWalk(tid, re, after, fn, steps, emitted)
}
