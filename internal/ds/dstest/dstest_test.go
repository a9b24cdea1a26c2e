package dstest

import (
	"errors"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/drive"
	"repro/internal/ds/treiber"
	"repro/internal/hist"
	"repro/internal/mem"
)

// lifo serves a Treiber stack through ds.Queue.
type lifo struct{ st *treiber.Stack }

func (l lifo) Name() string                         { return "lifo" }
func (l lifo) Enqueue(tid int, v int64) error       { return l.st.Push(tid, v) }
func (l lifo) Dequeue(tid int) (int64, bool, error) { return l.st.Pop(tid) }

// TestQueueScriptCatchesLIFO: the queue suite's script over a stack
// posing as a queue records a history that is not linearizable. It can
// tell only because every enqueued value is unique: with all values
// equal, the same history checks as a queue's.
func TestQueueScriptCatchesLIFO(t *testing.T) {
	env := NewEnv(t, "ebr", 4, 1<<12, 2, mem.Reuse)
	st, err := treiber.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := drive.Run(env.Env, lifo{st}, bagLinearizable)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Linearizable(); !errors.Is(err, drive.ErrNotLinearizable) {
		t.Fatalf("LIFO history against the queue spec: %v, want %v\n%v", err, drive.ErrNotLinearizable, res.Script)
	}
	for _, w := range res.Windows {
		for i := range w {
			w[i].Key, w[i].Val = 0, 0
		}
	}
	if ok, err := hist.CheckChained(hist.QueueSpec{}, res.Windows); err != nil || !ok {
		t.Errorf("with every value 0 the LIFO history checks %v, %v; want linearizable", ok, err)
	}
}

// outcomeTB records whether Check skipped or failed, and ends Check there
// as testing.T would.
type outcomeTB struct {
	testing.TB
	skipped, failed bool
}

func (o *outcomeTB) Helper()               {}
func (o *outcomeTB) Skipf(string, ...any)  { o.skipped = true; panic(o) }
func (o *outcomeTB) Fatalf(string, ...any) { o.failed = true; panic(o) }

// TestCheckSkipsOnlyConcurrentKnownRed: on a cell registry.KnownRed lists
// (pebr × every structure), Check skips a failing multi-threaded script,
// but a failing one-thread script, which has no interleaving to blame,
// still fails.
func TestCheckSkipsOnlyConcurrentKnownRed(t *testing.T) {
	for _, c := range []struct {
		s    drive.Script
		skip bool
	}{
		{drive.Script{Threads: 1, Ops: 50, Rounds: 4}, false},
		{bagLinearizable, true},
	} {
		env := NewEnv(t, "pebr", 4, 1<<12, 2, mem.Reuse)
		st, err := treiber.New(env.S, ds.Options{})
		if err != nil {
			t.Fatal(err)
		}
		o := &outcomeTB{TB: t}
		func() {
			defer func() {
				if r := recover(); r != nil && r != o {
					panic(r)
				}
			}()
			Check(o, env, lifo{st}, c.s)
		}()
		if o.skipped != c.skip || o.failed == c.skip {
			t.Errorf("%v over a LIFO queue under pebr: skipped %v, failed %v; want skipped %v", c.s, o.skipped, o.failed, c.skip)
		}
	}
}
