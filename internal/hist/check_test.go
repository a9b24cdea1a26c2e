package hist

import (
	"math/rand"
	"testing"
)

// op builds a complete Op literal tersely.
func op(tid int, k OpKind, key int64, ok bool, val int64, inv, res int64) Op {
	return Op{Tid: tid, Kind: k, Key: key, Ok: ok, Val: val, Inv: inv, Res: res}
}

func mustCheck(t *testing.T, spec Spec, ops []Op, want bool) {
	t.Helper()
	got, err := Check(spec, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Check=%v want %v for %v", got, want, ops)
	}
}

func TestSetSequentialHistories(t *testing.T) {
	mustCheck(t, SetSpec{}, []Op{
		op(0, OpInsert, 1, true, 0, 1, 2),
		op(0, OpInsert, 1, false, 0, 3, 4),
		op(0, OpContains, 1, true, 0, 5, 6),
		op(0, OpDelete, 1, true, 0, 7, 8),
		op(0, OpDelete, 1, false, 0, 9, 10),
		op(0, OpContains, 1, false, 0, 11, 12),
	}, true)

	// Double successful insert of the same key is not linearizable.
	mustCheck(t, SetSpec{}, []Op{
		op(0, OpInsert, 1, true, 0, 1, 2),
		op(0, OpInsert, 1, true, 0, 3, 4),
	}, false)

	// contains(true) before any insert completes or overlaps: not allowed
	// if it strictly precedes the insert.
	mustCheck(t, SetSpec{}, []Op{
		op(0, OpContains, 5, true, 0, 1, 2),
		op(1, OpInsert, 5, true, 0, 3, 4),
	}, false)
}

func TestSetConcurrentReordering(t *testing.T) {
	// contains(5)=true overlaps insert(5): linearizable by ordering the
	// insert first.
	mustCheck(t, SetSpec{}, []Op{
		op(0, OpContains, 5, true, 0, 1, 10),
		op(1, OpInsert, 5, true, 0, 2, 3),
	}, true)

	// Two overlapping successful inserts of the same key: impossible.
	mustCheck(t, SetSpec{}, []Op{
		op(0, OpInsert, 5, true, 0, 1, 10),
		op(1, OpInsert, 5, true, 0, 2, 9),
	}, false)

	// Overlapping insert and delete both succeeding: delete linearized
	// after insert.
	mustCheck(t, SetSpec{}, []Op{
		op(0, OpInsert, 5, true, 0, 1, 10),
		op(1, OpDelete, 5, true, 0, 2, 9),
	}, true)

	// delete succeeds strictly before insert: not linearizable.
	mustCheck(t, SetSpec{}, []Op{
		op(1, OpDelete, 5, true, 0, 1, 2),
		op(0, OpInsert, 5, true, 0, 3, 4),
	}, false)
}

func TestQueueSpecHistories(t *testing.T) {
	mustCheck(t, QueueSpec{}, []Op{
		op(0, OpEnqueue, 1, true, 0, 1, 2),
		op(0, OpEnqueue, 2, true, 0, 3, 4),
		op(1, OpDequeue, 0, true, 1, 5, 6),
		op(1, OpDequeue, 0, true, 2, 7, 8),
		op(1, OpDequeue, 0, false, 0, 9, 10),
	}, true)

	// FIFO violation: second enqueue dequeued first (sequential).
	mustCheck(t, QueueSpec{}, []Op{
		op(0, OpEnqueue, 1, true, 0, 1, 2),
		op(0, OpEnqueue, 2, true, 0, 3, 4),
		op(1, OpDequeue, 0, true, 2, 5, 6),
	}, false)

	// But legal if the enqueues overlap.
	mustCheck(t, QueueSpec{}, []Op{
		op(0, OpEnqueue, 1, true, 0, 1, 10),
		op(2, OpEnqueue, 2, true, 0, 2, 9),
		op(1, OpDequeue, 0, true, 2, 11, 12),
	}, true)
}

func TestStackSpecHistories(t *testing.T) {
	mustCheck(t, StackSpec{}, []Op{
		op(0, OpPush, 1, true, 0, 1, 2),
		op(0, OpPush, 2, true, 0, 3, 4),
		op(1, OpPop, 0, true, 2, 5, 6),
		op(1, OpPop, 0, true, 1, 7, 8),
		op(1, OpPop, 0, false, 0, 9, 10),
	}, true)

	// LIFO violation (sequential).
	mustCheck(t, StackSpec{}, []Op{
		op(0, OpPush, 1, true, 0, 1, 2),
		op(0, OpPush, 2, true, 0, 3, 4),
		op(1, OpPop, 0, true, 1, 5, 6),
	}, false)
}

func TestEmptyAndSingleton(t *testing.T) {
	mustCheck(t, SetSpec{}, nil, true)
	mustCheck(t, SetSpec{}, []Op{op(0, OpInsert, 3, true, 0, 1, 2)}, true)
	mustCheck(t, SetSpec{}, []Op{op(0, OpDelete, 3, true, 0, 1, 2)}, false)
	mustCheck(t, QueueSpec{}, []Op{op(0, OpDequeue, 0, false, 0, 1, 2)}, true)
}

func TestCheckTooLarge(t *testing.T) {
	ops := make([]Op, MaxCheckOps+1)
	for i := range ops {
		ops[i] = op(0, OpContains, 1, false, 0, int64(2*i+1), int64(2*i+2))
	}
	if _, err := Check(SetSpec{}, ops); err == nil {
		t.Fatal("expected size error")
	}
}

func TestWellFormedRejectsOverlapSameThread(t *testing.T) {
	ops := []Op{
		op(0, OpInsert, 1, true, 0, 1, 5),
		op(0, OpInsert, 2, true, 0, 3, 7), // overlaps previous op of same thread
	}
	if err := WellFormed(ops); err == nil {
		t.Fatal("expected well-formedness error")
	}
}

func TestCheckChained(t *testing.T) {
	w1 := []Op{
		op(0, OpInsert, 1, true, 0, 1, 4),
		op(1, OpInsert, 2, true, 0, 2, 3),
	}
	w2 := []Op{
		op(0, OpDelete, 1, true, 0, 10, 11),
		op(1, OpContains, 2, true, 0, 12, 13),
	}
	ok, err := CheckChained(SetSpec{}, [][]Op{w1, w2})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}

	// Second window contradicts every final state of the first.
	bad := []Op{op(0, OpDelete, 3, true, 0, 10, 11)}
	ok, err = CheckChained(SetSpec{}, [][]Op{w1, bad})
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}

	// Overlapping windows are rejected.
	overlap := []Op{op(0, OpContains, 1, true, 0, 2, 20)}
	if _, err := CheckChained(SetSpec{}, [][]Op{w1, overlap}); err == nil {
		t.Fatal("expected overlap error")
	}
}

// Random sequential histories generated by playing a real set must always
// be linearizable; mutating one response must be caught when it matters.
func TestQuickRandomSequentialSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		model := map[int64]bool{}
		var ops []Op
		ts := int64(1)
		n := 4 + rng.Intn(20)
		for i := 0; i < n; i++ {
			key := int64(rng.Intn(5))
			var o Op
			switch rng.Intn(3) {
			case 0:
				o = op(0, OpInsert, key, !model[key], 0, ts, ts+1)
				model[key] = true
			case 1:
				o = op(0, OpDelete, key, model[key], 0, ts, ts+1)
				delete(model, key)
			case 2:
				o = op(0, OpContains, key, model[key], 0, ts, ts+1)
			}
			ts += 2
			ops = append(ops, o)
		}
		mustCheck(t, SetSpec{}, ops, true)

		// Flip the result of one contains: history must become invalid
		// unless flipping happens to be consistent (it cannot be, for a
		// sequential history).
		for i, o := range ops {
			if o.Kind == OpContains {
				bad := make([]Op, len(ops))
				copy(bad, ops)
				bad[i].Ok = !bad[i].Ok
				mustCheck(t, SetSpec{}, bad, false)
				break
			}
		}
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(2, 0)
	p := r.Begin(0, OpInsert, 9)
	q := r.Begin(1, OpContains, 9)
	r.End(1, q, false, 0)
	r.End(0, p, true, 0)
	h := r.History()
	if len(h) != 2 {
		t.Fatalf("history: %v", h)
	}
	if err := WellFormed(h); err != nil {
		t.Fatal(err)
	}
	ok, err := Check(SetSpec{}, h)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	r.Reset()
	if len(r.History()) != 0 {
		t.Fatal("reset failed")
	}
}
