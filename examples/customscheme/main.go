// Customscheme: implementing a brand-new reclamation scheme against the
// smr.Scheme interface and evaluating it with the repository's machinery.
//
// The scheme here is "deferred free": retired nodes wait in a FIFO ring of
// fixed depth and reclaim when they rotate out. It is trivially easy to
// integrate (no rollbacks, no phases) and bounded in space — so by the ERA
// theorem it cannot be widely applicable, and indeed running it through
// the Theorem 6.1 workload on Harris's list dereferences freed memory.
//
//	go run ./examples/customscheme
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/hist"
	"repro/internal/mem"
	"repro/internal/smr"
)

// Deferred is the example scheme: a per-thread FIFO ring of retired nodes.
// Old enough nodes are assumed dead — an assumption a stalled traversal
// violates, which is exactly what the evaluation exposes.
type Deferred struct {
	smr.Base
	depth int
}

var _ smr.Scheme = (*Deferred)(nil)

// NewDeferred builds the scheme over arena a for n threads with a ring of
// depth retired nodes per thread (the scheme's scan threshold; <= 0
// selects 64).
func NewDeferred(a *mem.Arena, n, depth int) *Deferred {
	if depth <= 0 {
		depth = 64
	}
	return &Deferred{Base: smr.NewBase(a, n, depth), depth: depth}
}

// Name implements smr.Scheme.
func (d *Deferred) Name() string { return "deferred" }

// Props implements smr.Scheme. The claims below are what the evaluation
// checks: easy (no rollbacks, no phases) and robust (fixed ring depth);
// applicability is claimed Restricted because the scheme has no way to
// know when a stalled reader still holds references.
func (d *Deferred) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		Robustness:    smr.Robust,
		Applicability: smr.Restricted,
	}
}

// BeginOp implements smr.Scheme.
func (d *Deferred) BeginOp(tid int) {}

// EndOp implements smr.Scheme.
func (d *Deferred) EndOp(tid int) {}

// Alloc implements smr.Scheme.
func (d *Deferred) Alloc(tid int) (mem.Ref, error) { return d.Arena.Alloc(tid) }

// Retire implements smr.Scheme: push into the ring; reclaim the oldest
// entry once the ring is full.
func (d *Deferred) Retire(tid int, r mem.Ref) {
	if d.Arena.Retire(tid, r) != nil {
		return
	}
	l := &d.Lists[tid].Refs
	*l = append(*l, r)
	if len(*l) > d.depth {
		oldest := (*l)[0]
		*l = (*l)[1:]
		_ = d.Arena.Reclaim(tid, oldest)
	}
}

// Flush implements smr.Scheme; the ring drains only by rotation, so Flush
// is a no-op (draining eagerly would break even sequential use).
func (d *Deferred) Flush(tid int) {}

// Read implements smr.Scheme.
func (d *Deferred) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	return d.TransparentRead(tid, r, w)
}

// ReadPtr implements smr.Scheme.
func (d *Deferred) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	return d.TransparentReadPtr(tid, src, w)
}

// Write implements smr.Scheme.
func (d *Deferred) Write(tid int, r mem.Ref, w int, v uint64) bool {
	return d.TransparentWrite(tid, r, w, v)
}

// WritePtr implements smr.Scheme.
func (d *Deferred) WritePtr(tid int, r mem.Ref, w int, v mem.Ref) bool {
	return d.TransparentWrite(tid, r, w, uint64(v))
}

// CAS implements smr.Scheme.
func (d *Deferred) CAS(tid int, r mem.Ref, w int, old, new uint64) (bool, bool) {
	return d.TransparentCAS(tid, r, w, old, new)
}

// CASPtr implements smr.Scheme.
func (d *Deferred) CASPtr(tid int, r mem.Ref, w int, old, new mem.Ref) (bool, bool) {
	return d.TransparentCAS(tid, r, w, uint64(old), uint64(new))
}

// Reserve implements smr.Scheme.
func (d *Deferred) Reserve(tid int, refs ...mem.Ref) bool { return true }

func main() {
	// 1. Sequential + concurrent correctness on Harris's list, with a
	//    linearizability check over barrier-separated rounds.
	arena := mem.NewArena(mem.Config{
		Slots: 1 << 14, PayloadWords: 2, MetaWords: smr.MetaWords, Threads: 4, Mode: mem.Reuse,
	})
	scheme := NewDeferred(arena, 4, 64)
	list, err := registry.MustGet("harris").NewSet(scheme, ds.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rec := hist.NewRecorder(4)
	var windows [][]hist.Op
	for round := 0; round < 6; round++ {
		done := make(chan error, 4)
		for tid := 0; tid < 4; tid++ {
			go func(tid, round int) {
				for i := 0; i < 3; i++ {
					key := int64((tid*7 + round*3 + i) % 8)
					switch (tid + i) % 3 {
					case 0:
						p := rec.Begin(tid, hist.OpInsert, key)
						ok, err := list.Insert(tid, key)
						if err != nil {
							done <- err
							return
						}
						rec.End(tid, p, ok, 0)
					case 1:
						p := rec.Begin(tid, hist.OpDelete, key)
						ok, err := list.Delete(tid, key)
						if err != nil {
							done <- err
							return
						}
						rec.End(tid, p, ok, 0)
					default:
						p := rec.Begin(tid, hist.OpContains, key)
						ok, err := list.Contains(tid, key)
						if err != nil {
							done <- err
							return
						}
						rec.End(tid, p, ok, 0)
					}
				}
				done <- nil
			}(tid, round)
		}
		for i := 0; i < 4; i++ {
			if err := <-done; err != nil {
				log.Fatal(err)
			}
		}
		windows = append(windows, rec.History())
		rec.Reset()
	}
	lin, err := hist.CheckChained(hist.SetSpec{}, windows)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linearizable under light concurrency: %v\n", lin)
	fmt.Printf("safety so far: %s\n\n", core.Safety(arena, scheme))

	// 2. The scheme's ERA row, from the same scripts the matrix runs on
	//    every registered scheme: a stalled reader's audited backlog, and
	//    Figures 1 and 2 on Harris's list. The ring rotates the stalled
	//    thread's path out of existence — the "robust + easy" corner
	//    cannot be safe there.
	const figureK = 600
	row, err := core.Classify(func(a *mem.Arena, n, threshold int) smr.Scheme {
		return NewDeferred(a, n, threshold)
	}, figureK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.Matrix{Rows: []core.MatrixRow{row}, FigureK: figureK})
	if row.Easy && row.Robust && !row.Wide {
		fmt.Println("\nverdict: easy + robust, and therefore (per the ERA theorem) NOT widely applicable —")
		fmt.Println("the stalled traversal dereferenced memory the ring had already rotated out.")
	}
}
