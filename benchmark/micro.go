package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/workload"
)

// Unit costs of the two innermost layers and of the store hand-off,
// measured by micro-loops over their public functions on private
// instances. They are workload-independent: what one guarded load, one
// bracket, one retire or one queue round trip costs.

// microSchemes are the three scheme families the ladder prices: epochs,
// per-pointer protection, versions.
var microSchemes = []string{"ebr", "hp", "vbr"}

const microIters = 20000

// sink keeps the loops' results alive.
var sink uint64

// chunked times chunks runs of microIters calls of body and returns the
// median per-call time in nanoseconds.
func chunked(chunks int, body func(i int)) float64 {
	per := make([]float64, chunks)
	for c := range per {
		t := time.Now()
		for i := 0; i < microIters; i++ {
			body(i)
		}
		per[c] = float64(time.Since(t)) / microIters
	}
	return median(per)
}

func microArena(threads int) *mem.Arena {
	return mem.NewArena(mem.Config{
		Slots: 4096, PayloadWords: 2, MetaWords: smr.MetaWords, Threads: threads, Mode: mem.Reuse,
	})
}

func runMicro(j job) (map[string]float64, error) {
	m := map[string]float64{}

	a := microArena(1)
	node, err := a.Alloc(0)
	if err != nil {
		return nil, err
	}
	if err := a.MarkShared(node); err != nil {
		return nil, err
	}
	m["mem.load_ns"] = chunked(j.Chunks, func(int) {
		v, _ := a.Load(0, node, ds.WKey)
		sink += v
	})
	var word uint64
	m["mem.cas_ns"] = chunked(j.Chunks, func(int) {
		if ok, _ := a.CAS(0, node, ds.WKey, word, word+1); ok {
			word++
		}
	})
	var lifecycleErr error
	m["mem.alloc_reclaim_ns"] = chunked(j.Chunks, func(int) {
		r, err := a.Alloc(0)
		if err == nil {
			err = a.MarkShared(r)
		}
		if err == nil {
			err = a.Retire(0, r)
		}
		if err == nil {
			err = a.Reclaim(0, r)
		}
		if err != nil {
			lifecycleErr = err
		}
	})
	if lifecycleErr != nil {
		return nil, fmt.Errorf("mem micro-loop: %w", lifecycleErr)
	}

	for _, name := range microSchemes {
		a := microArena(2)
		s, err := all.New(name, a, 2, 0)
		if err != nil {
			return nil, err
		}
		// A two-node chain to read a link from.
		head, err := ds.NewSentinel(s, 0, ds.KeyMin)
		if err != nil {
			return nil, err
		}
		next, err := ds.NewSentinel(s, 0, ds.KeyMax)
		if err != nil {
			return nil, err
		}
		if !s.WritePtr(0, head, ds.WNext, next) {
			return nil, fmt.Errorf("%s micro-loop: link write refused", name)
		}
		m["smr."+name+".bracket_ns"] = chunked(j.Chunks, func(int) {
			s.BeginOp(0)
			s.EndOp(0)
		})
		s.BeginOp(0)
		m["smr."+name+".readptr_ns"] = chunked(j.Chunks, func(int) {
			r, _ := s.ReadPtr(0, 1, head, ds.WNext)
			sink += uint64(r)
		})
		s.EndOp(0)
		// One bracketed alloc → share → retire round; reclamation scans
		// fire at the scheme's own threshold and are amortised in.
		var allocErr error
		m["smr."+name+".retire_ns"] = chunked(j.Chunks, func(int) {
			s.BeginOp(0)
			r, err := s.Alloc(0)
			if err == nil {
				err = a.MarkShared(r)
			}
			if err != nil {
				allocErr = err
			} else {
				s.Retire(0, r)
			}
			s.EndOp(0)
		})
		if allocErr != nil {
			return nil, fmt.Errorf("%s micro-loop: %w", name, allocErr)
		}
	}

	// One-op DoInto: partition skipped, two queue hand-offs, one op.
	st, err := store.New(store.Config{
		Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: "hashmap", Workers: 1}),
		KeyRange: 1024,
	})
	if err != nil {
		return nil, err
	}
	for k := int64(0); k < 1024; k += 2 {
		if _, err := st.Insert(k); err != nil {
			return nil, err
		}
	}
	op := make([]store.Op, 1)
	res := make([]store.Result, 1)
	var doErr error
	ns := chunked(j.Chunks, func(i int) {
		op[0] = store.Op{Kind: workload.OpContains, Key: int64(i % 1024)}
		if err := st.DoInto(op, res); err != nil {
			doErr = err
		}
	})
	if doErr != nil {
		return nil, doErr
	}
	m["store.handoff_us"] = ns / 1e3
	return m, st.Close()
}

// probeResult is the concurrency probe's report.
type probeResult struct {
	Metrics  map[string]float64 `json:"metrics"`
	Ops      uint64             `json:"ops"`
	Mismatch string             `json:"mismatch,omitempty"`
}

// runProbe is the one place the benchmark runs truly concurrent: two
// workers on one michael × hp shard over 64 keys, two clients, every
// core. It is not an end-to-end metric — at this core count its timing is
// scheduler noise — but its restart rates and safety counters still
// notice a change that breaks or storms the contended path.
func runProbe(j job) (*probeResult, error) {
	const keyRange, batch, clients = 64, 16, 2
	st, err := store.New(store.Config{
		Shards:   []store.ShardSpec{{Scheme: "hp", Structure: "michael", Workers: 2}},
		KeyRange: keyRange,
	})
	if err != nil {
		return nil, err
	}
	src, err := workload.New(workload.Config{Dist: "uniform", KeyRange: keyRange, Mix: workload.MixBalanced, Seed: j.Seed})
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(j.ProbeMs) * time.Millisecond)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := src.Thread(c, 1<<20)
			ops := make([]store.Op, batch)
			res := make([]store.Result, batch)
			for time.Now().Before(deadline) {
				for i := range ops {
					kind, key := stream.Next()
					ops[i] = store.Op{Kind: kind, Key: key}
				}
				if err := st.DoInto(ops, res); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s := st.Stats()
	if err := st.Close(); err != nil {
		return nil, err
	}
	p := &probeResult{Ops: s.Ops, Metrics: map[string]float64{
		"smr.contend.restarts_per_kop":     1000 * ratio(s.Restarts, s.Ops),
		"ds.contend.trav_restarts_per_kop": 1000 * ratio(s.TravRestarts, s.Ops),
	}}
	if bad := s.Faults + s.StaleUses + s.UnsafeAccesses + s.Errs + s.GuardTrips; bad != 0 || s.Ops == 0 {
		p.Mismatch = fmt.Sprintf("contended path (GOMAXPROCS=%d): ops %d faults %d stale %d unsafe %d errs %d guard trips %d",
			runtime.GOMAXPROCS(0), s.Ops, s.Faults, s.StaleUses, s.UnsafeAccesses, s.Errs, s.GuardTrips)
	}
	return p, nil
}
