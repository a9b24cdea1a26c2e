package smr

// Fused bracket windows: one BeginOp per batch of point operations
// instead of one per op, re-bracketing every K ops so the epoch (or
// hazard-slot) pin stays bounded exactly like the iterator's 512-key
// re-bracketing. The rollback contract makes this safe for every
// scheme: operations already tolerate "drop all references and restart
// from the entry point" at any step, so an EndOp/BeginOp pair between
// two ops of a batch is indistinguishable from two ops run by an
// unlucky thread. What fusion changes is only how often the pair is
// paid: once per K ops instead of once per op. Between re-brackets a
// window pins at most one epoch (EBR/QSBR/IBR/HE eras) or K ops' worth
// of hazard-slot reuse (HP), so each scheme's declared robustness class
// survives with the same bound the PR-5 iterator already established.

// DefaultWindow is the re-bracket cadence used when the caller does not
// choose one: the same 512-op pin bound as the iterator contract.
const DefaultWindow = 512

// Rebracketer is an optional scheme fast path: a single-store (or
// near-single-store) equivalent of EndOp+BeginOp for schemes whose
// bracket edges collapse (EBR and friends re-announce the current
// epoch; QSBR bumps its quiescence counter while staying online).
// Schemes without it fall back to an explicit EndOp+BeginOp pair,
// which is always correct.
type Rebracketer interface {
	Rebracket(tid int)
}

// WindowCapper is an optional scheme bound on the fused cadence: a
// scheme whose protocol punishes long-held brackets returns the largest
// window it tolerates and BeginOps clamps the caller's choice to it.
// Safety never needs this — the rollback contract covers any cadence —
// but liveness can: an ejection-based scheme (PEBR) treats a stale
// active announcement as a stalled thread, so a fleet of fused windows
// all pinning old epochs ejects every thread continuously and turns
// the batch into a restart storm. A small cap keeps the announcement
// fresh at per-op-like rates while the batch still skips the rest of
// the bracket cost.
type WindowCapper interface {
	FusedWindowCap() int
}

// Window is one fused bracket covering a batch of operations on a
// single thread. Zero-cost to create on the stack; not safe for
// concurrent use (it is per-tid by construction). A window shared with
// code behind an interface (the hashmap handing it to its buckets) must
// sit in memory the owner already has on the heap: a stack Window whose
// address crosses an interface call escapes, one allocation per batch.
type Window struct {
	s  Scheme
	rb Rebracketer
	// tid is the owning thread slot.
	tid int
	// k is the re-bracket cadence (ops between bracket renewals).
	k int
	// n counts ops stepped since the last renewal.
	n int
	// rebrackets counts renewals performed over the window's lifetime.
	rebrackets uint64
}

// BeginOps opens a fused window for tid, issuing the single BeginOp
// that covers the batch. k <= 0 selects DefaultWindow. The caller must
// close the window with EndOps (not deferred in hot paths — a deferred
// method value on a stack Window escapes).
func BeginOps(s Scheme, tid, k int) Window {
	if k <= 0 {
		k = DefaultWindow
	}
	if c, ok := s.(WindowCapper); ok {
		if cap := c.FusedWindowCap(); cap > 0 && cap < k {
			k = cap
		}
	}
	s.BeginOp(tid)
	rb, _ := s.(Rebracketer)
	return Window{s: s, rb: rb, tid: tid, k: k}
}

// Step advances the window by one operation and renews the bracket
// when the cadence expires. It returns true exactly when a renewal
// happened — the caller MUST then drop every cached node reference
// (validated-predecessor caches included) before touching shared
// memory again, because the renewal may have cleared hazard slots or
// released the pinned epoch.
func (w *Window) Step() bool {
	w.n++
	if w.n < w.k {
		return false
	}
	w.n = 0
	w.rebrackets++
	if w.rb != nil {
		w.rb.Rebracket(w.tid)
	} else {
		w.s.EndOp(w.tid)
		w.s.BeginOp(w.tid)
	}
	return true
}

// EndOps closes the window, issuing the single EndOp that covers the
// batch tail.
func (w *Window) EndOps() {
	w.s.EndOp(w.tid)
}

// Rebrackets reports how many bracket renewals the window performed.
func (w *Window) Rebrackets() uint64 {
	return w.rebrackets
}
