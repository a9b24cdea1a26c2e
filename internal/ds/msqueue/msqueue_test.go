package msqueue_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/dstest"
	"repro/internal/ds/msqueue"
	"repro/internal/mem"
)

func TestSuite(t *testing.T) { dstest.RunSuite(t, "msqueue") }

// TestFIFOOrder checks strict FIFO delivery under a single producer and a
// single consumer running concurrently.
func TestFIFOOrder(t *testing.T) {
	env := dstest.NewEnv(t, "hp", 2, 1<<14, 2, mem.Reuse)
	q, err := msqueue.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	done := make(chan error, 1)
	go func() {
		for i := int64(0); i < n; i++ {
			if err := q.Enqueue(0, i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var next int64
	for next < n {
		v, ok, err := q.Dequeue(1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		if v != next {
			t.Fatalf("dequeued %d, want %d", v, next)
		}
		next++
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := q.Dequeue(1); ok {
		t.Fatal("queue should be empty")
	}
	env.AssertSafe(t)
}

// TestEmptyDequeue checks the empty-queue fast path repeatedly.
func TestEmptyDequeue(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<10, 2, mem.Reuse)
	q, err := msqueue.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, ok, err := q.Dequeue(0); err != nil || ok {
			t.Fatalf("dequeue on empty = ok=%v err=%v", ok, err)
		}
	}
	env.AssertSafe(t)
}
