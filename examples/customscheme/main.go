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
	"repro/internal/ds/drive"
	"repro/internal/mem"
	"repro/internal/smr"
)

// Deferred is the example scheme: a per-thread FIFO ring of retired nodes.
// Old enough nodes are assumed dead — an assumption a stalled traversal
// violates, which is exactly what the evaluation exposes. smr.Base
// supplies every method the scheme does not change: transparent brackets
// and accesses, Alloc, and a no-op Flush (the ring drains only by
// rotation; draining eagerly would break even sequential use).
type Deferred struct {
	smr.Base
}

var _ smr.Scheme = (*Deferred)(nil)

// NewDeferred builds the scheme over arena a for n threads with a ring of
// depth retired nodes per thread (<= 0 selects 64). The ring lives in
// Base's retire lists with depth as the threshold, and the scheme installs
// no scan.
func NewDeferred(a *mem.Arena, n, depth int) *Deferred {
	if depth <= 0 {
		depth = 64
	}
	return &Deferred{Base: smr.NewBase(a, n, depth, nil)}
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

// Retire implements smr.Scheme: push into the ring; reclaim the oldest
// entry once the ring is full.
func (d *Deferred) Retire(tid int, r mem.Ref) {
	if d.Arena.Retire(tid, r) != nil {
		return
	}
	l := &d.Lists[tid].Refs
	*l = append(*l, r)
	if len(*l) > d.Threshold {
		oldest := (*l)[0]
		*l = (*l)[1:]
		_ = d.Arena.Reclaim(tid, oldest)
	}
}

func main() {
	// 1. Concurrent correctness on Harris's list through the seeded
	//    driver: six barrier-separated rounds checked for
	//    linearizability, then the run's safety (Definition 4.2).
	arena := mem.NewArena(mem.Config{
		Slots: 1 << 14, PayloadWords: 2, MetaWords: smr.MetaWords, Threads: 4, Mode: mem.Reuse,
	})
	scheme := NewDeferred(arena, 4, 64)
	env := &drive.Env{A: arena, S: scheme, N: 4}
	list, err := drive.NewTarget("harris", scheme)
	if err != nil {
		log.Fatal(err)
	}
	res, err := drive.Run(env, list, drive.Script{Threads: 4, Ops: 3, Rounds: 6, KeyRange: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linearizable under light concurrency: %v\n", res.Linearizable() == nil)
	safety := "safe"
	if err := env.Safe(); err != nil {
		safety = err.Error()
	}
	fmt.Printf("safety so far: %s\n\n", safety)

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
