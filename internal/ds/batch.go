package ds

import (
	"errors"

	"repro/internal/mem"
	"repro/internal/smr"
)

// Batch-fused execution: a BatchSet runs a whole slice of point ops
// under one amortized SMR bracket (smr.BeginOps / Window.Step /
// EndOps) instead of paying BeginOp+EndOp per op. The ordered list
// structures additionally reuse their validated-predecessor cache
// across consecutive ops, so a key-sorted batch of k ops becomes one
// amortized sweep; the hashmap gets the same sweep per bucket by running
// each bucket's share of the batch as one chain under the shared window.
// Results are identical to running the ops one by one in slice order on
// the same thread: same results, same per-op errors, execution
// continues past a failed op. A structure may execute ops on distinct
// keys in another order — they commute — but never two ops on one key.

// BatchKind is a point-op kind inside a batch. The values deliberately
// mirror workload.Op (contains=0, insert=1, delete=2) so the store can
// convert with a cast.
type BatchKind uint8

// Batch op kinds.
const (
	BatchContains BatchKind = iota
	BatchInsert
	BatchDelete
)

// BatchOp is one point operation of a batch.
type BatchOp struct {
	Kind BatchKind
	Key  int64
}

// BatchResult is the outcome of one batch op, matching what the
// structure's Contains/Insert/Delete would have returned.
type BatchResult struct {
	OK  bool
	Err error
}

// ErrBadBatchOp reports an op kind outside the Batch* set.
var ErrBadBatchOp = errors.New("ds: invalid batch op kind")

// BatchSet is the fused fast path. ApplyBatch executes ops on thread
// tid, writing res[i] for ops[i] as in-order execution would (res must
// have len >= len(ops)), and returns the number of bracket renewals the
// fused window paid — the caller's measure of how much amortization it
// got. Callers that want key locality sort the batch first; ApplyBatch
// itself needs no order and leaves ops as it found them.
type BatchSet interface {
	ApplyBatch(tid int, ops []BatchOp, res []BatchResult) (rebrackets uint64)
}

// Cursor is the lists' validated-predecessor cache across the
// consecutive ops of one fused chain: each find records the pred of its
// window, and the next op's find starts from it — a PhaseResume read
// phase — when it strictly precedes the new key. That is sound only
// while nothing voided the pred's protection, so the cursor is dropped
// at every bracket renewal (Window.Step returning true) and after every
// scheme rollback (ok == false). Every method accepts a nil cursor: the
// single-op path has none.
type Cursor struct {
	pred mem.Ref
	key  int64 // pred's key
	slot int   // scheme slot still protecting pred
	ok   bool
}

// Take hands a find the cached pred, its key and its protecting slot
// when the cursor holds one below key, and empties the cursor either
// way: the find records its own pred when it succeeds.
func (c *Cursor) Take(key int64) (pred mem.Ref, predKey int64, slot int, ok bool) {
	if c == nil {
		return mem.NilRef, 0, 0, false
	}
	ok, c.ok = c.ok && c.key < key, false
	return c.pred, c.key, c.slot, ok
}

// Keep records the validated pred a find's window starts at.
func (c *Cursor) Keep(pred mem.Ref, key int64, slot int) {
	if c != nil {
		*c = Cursor{pred: pred, key: key, slot: slot, ok: true}
	}
}

// Drop empties the cursor.
func (c *Cursor) Drop() {
	if c != nil {
		c.ok = false
	}
}

// StepSet is the unbracketed single-op surface backing RunBatch: StepOp
// runs one op assuming the caller already holds an open bracket for
// tid (an smr.Window or a plain BeginOp).
type StepSet interface {
	StepOp(tid int, kind BatchKind, key int64) (bool, error)
}

// RunBatch is the generic ApplyBatch: a fused window around per-op
// StepOp calls. Structures without a cross-op predecessor cache use it
// verbatim.
func RunBatch(s smr.Scheme, set StepSet, tid int, ops []BatchOp, res []BatchResult) uint64 {
	w := smr.BeginOps(s, tid, 0)
	for i := range ops {
		if i > 0 {
			w.Step()
		}
		ok, err := set.StepOp(tid, ops[i].Kind, ops[i].Key)
		res[i] = BatchResult{OK: ok, Err: err}
	}
	w.EndOps()
	return w.Rebrackets()
}
