package treiber_test

import (
	"sync"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/dstest"
	"repro/internal/ds/treiber"
	"repro/internal/mem"
)

func TestSuite(t *testing.T) { dstest.RunSuite(t, "treiber") }

// TestConservation checks that every pushed value is popped exactly once
// under full concurrency (4 pushers, 4 poppers).
func TestConservation(t *testing.T) {
	env := dstest.NewEnv(t, "hp", 8, 1<<15, 2, mem.Reuse)
	st, err := treiber.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const perThread = 2000
	var wg sync.WaitGroup
	popped := make([][]int64, 4)
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				v := int64(tid*perThread + i)
				if err := st.Push(tid, v); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}
	var remaining sync.WaitGroup
	for p := 0; p < 4; p++ {
		remaining.Add(1)
		go func(tid int) {
			defer remaining.Done()
			var got []int64
			misses := 0
			for len(got) < perThread && misses < 1<<22 {
				v, ok, err := st.Pop(4 + tid)
				if err != nil {
					t.Errorf("pop: %v", err)
					return
				}
				if !ok {
					misses++
					continue
				}
				got = append(got, v)
			}
			popped[tid] = got
		}(p)
	}
	wg.Wait()
	remaining.Wait()
	if t.Failed() {
		return
	}
	seen := make(map[int64]bool, 4*perThread)
	for _, got := range popped {
		for _, v := range got {
			if seen[v] {
				t.Fatalf("value %d popped twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 4*perThread {
		t.Fatalf("popped %d distinct values, want %d", len(seen), 4*perThread)
	}
	env.AssertSafe(t)
}
