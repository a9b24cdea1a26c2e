package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/resil"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/workload"
)

// epoch anchors the benchmark's monotonic clock and now reads it: a
// time.Since is one clock read (~55 ns here), a time.Now two.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// A rung is one layer of the stack driven from outside through its public
// entry point: bare structures (ds), store.DoInto (store), exec.Submit
// (exec), resil.Client.Do (resil). Every rung serves the same requests on
// its own identically prefilled deployment, so the state evolves
// identically and request i's spans are comparable down the ladder.
type rung interface {
	// prep does the request's work that belongs to the layer above and is
	// therefore kept out of the span (the ds rung partitions and key-sorts
	// here, as the store would have).
	prep(r *request)
	// run makes the layer's call(s) for r. span covers the calls only;
	// check folds the outputs for the oracle; failed counts operations
	// that returned an error or sat in a failed or partial request.
	run(r *request) (span time.Duration, check uint64, failed int)
	// store is the store behind the rung (nil for the ds rung).
	store() *store.Store
	// counters returns the layer's cumulative counters; the ladder takes
	// their difference over the traced requests.
	counters() map[string]uint64
	close() error
}

// fold compresses a keyed request's per-op outcomes, in submission
// order, into one comparable word: a bitmask of the true results when it
// fits, their count otherwise.
type fold struct {
	check  uint64
	failed int
	i      int
	wide   bool
}

func newFold(n int) fold { return fold{wide: n > 64} }

func (f *fold) add(ok bool, err error) {
	switch {
	case err != nil:
		f.failed++
	case ok && f.wide:
		f.check++
	case ok:
		f.check |= 1 << uint(f.i)
	}
	f.i++
}

// foldRange compresses a range request's output: the match count for a
// count request, an order-dependent hash of the ascending key list for a
// scan (any missing, extra or misplaced key changes it).
func foldRange(countOnly bool, keys []int64, count uint64) uint64 {
	if countOnly {
		return count
	}
	h := uint64(len(keys))
	for _, k := range keys {
		h = h*0x9e3779b97f4a7c15 + uint64(k) + 1
	}
	return h
}

// allTrue is the fold of n operations that all returned true.
func allTrue(n int) uint64 {
	f := newFold(n)
	for i := 0; i < n; i++ {
		f.add(true, nil)
	}
	return f.check
}

func foldStoreResults(res []store.Result) (uint64, int) {
	f := newFold(len(res))
	for i := range res {
		f.add(res[i].OK, res[i].Err)
	}
	return f.check, f.failed
}

func (sp *spec) storeConfig() store.Config {
	return store.Config{
		Shards:   store.Uniform(sp.shards, store.ShardSpec{Scheme: sp.scheme, Structure: sp.structure, Workers: 1}),
		KeyRange: sp.keyRange,
	}
}

// prefill loads the prefill batches through the rung's own entry point
// and fails on any insert that did not take.
func prefill(rg rung, batches []request) error {
	for i := range batches {
		b := &batches[i]
		rg.prep(b)
		_, check, failed := rg.run(b)
		if failed != 0 || check != allTrue(len(b.ops)) {
			return fmt.Errorf("prefill batch %d: %d failed ops, results %#x", i, failed, check)
		}
	}
	return nil
}

// --- ds ---------------------------------------------------------------------

// dsRung applies requests to bare registry structures, one per shard,
// over the arena and scheme sizing store.newShard uses.
type dsRung struct {
	router  *store.Store // routing only: Store.ShardFor
	schemes []smr.Scheme
	sets    []ds.Set
	batch   []ds.BatchSet // sets[s]'s fused path
	iters   []ds.Iterator // sets[s]'s iterator
	ordered bool

	bops [][]ds.BatchOp
	pos  [][]int
	bres []ds.BatchResult
	out  []store.Result
	keys []int64
}

// newDSRung builds the bare structures. wrap, when non-nil, interposes on
// each shard's scheme (the counting wrapper).
func newDSRung(sp *spec, wrap func(smr.Scheme) smr.Scheme) (*dsRung, error) {
	router, err := store.New(sp.storeConfig())
	if err != nil {
		return nil, err
	}
	info, err := registry.Get(sp.structure)
	if err != nil {
		return nil, err
	}
	const workers = 1
	d := &dsRung{
		router:  router,
		ordered: !info.Partitioned,
		bops:    make([][]ds.BatchOp, sp.shards),
		pos:     make([][]int, sp.shards),
	}
	for s := 0; s < sp.shards; s++ {
		spec, err := router.Spec(s)
		if err != nil {
			return nil, err
		}
		a := mem.NewArena(mem.Config{
			Slots:        spec.Slots,
			PayloadWords: info.PayloadWords,
			MetaWords:    smr.MetaWords,
			Threads:      workers + 1,
			Mode:         mem.Reuse,
		})
		sch, err := all.New(sp.scheme, a, workers+1, spec.Threshold)
		if err != nil {
			return nil, err
		}
		if wrap != nil {
			sch = wrap(sch)
		}
		set, err := info.NewSet(sch, ds.Options{})
		if err != nil {
			return nil, err
		}
		batch, ok := set.(ds.BatchSet)
		if !ok {
			return nil, fmt.Errorf("%s has no fused batch path", info.Name)
		}
		iter, ok := set.(ds.Iterator)
		if !ok {
			return nil, fmt.Errorf("%s has no iterator", info.Name)
		}
		d.schemes = append(d.schemes, sch)
		d.sets = append(d.sets, set)
		d.batch = append(d.batch, batch)
		d.iters = append(d.iters, iter)
	}
	return d, nil
}

func (d *dsRung) store() *store.Store { return nil }
func (d *dsRung) close() error        { return d.router.Close() }

func (d *dsRung) prep(r *request) {
	for s := range d.bops {
		d.bops[s], d.pos[s] = d.bops[s][:0], d.pos[s][:0]
	}
	for i, op := range r.ops {
		s := d.router.ShardFor(op.Key)
		d.bops[s] = append(d.bops[s], ds.BatchOp{Kind: ds.BatchKind(op.Kind), Key: op.Key})
		d.pos[s] = append(d.pos[s], i)
	}
	for s := range d.bops {
		sortByKey(d.bops[s], d.pos[s])
	}
	if n := len(r.ops); cap(d.out) < n {
		d.out = make([]store.Result, n)
		d.bres = make([]ds.BatchResult, n)
	}
}

// sortByKey is the store's stable key sort: ops on one key keep their
// submission order, so sorted execution answers like the serial loop.
func sortByKey(ops []ds.BatchOp, pos []int) {
	for i := 1; i < len(ops); i++ {
		op, p := ops[i], pos[i]
		j := i
		for j > 0 && ops[j-1].Key > op.Key {
			ops[j], pos[j] = ops[j-1], pos[j-1]
			j--
		}
		ops[j], pos[j] = op, p
	}
}

func (d *dsRung) run(r *request) (span time.Duration, check uint64, failed int) {
	if r.isRange() {
		countOnly := r.req.Kind == workload.ReqRangeCount
		d.keys = d.keys[:0]
		var count uint64
		for _, it := range d.iters {
			lo, hi := r.req.Lo, r.req.Hi
			t := now()
			err := it.Iterate(0, func(k int64) bool {
				if k >= hi {
					return !d.ordered
				}
				if k >= lo {
					count++
					if !countOnly {
						d.keys = append(d.keys, k)
					}
				}
				return true
			})
			span += now() - t
			if err != nil {
				failed = 1
			}
		}
		slices.Sort(d.keys)
		return span, foldRange(countOnly, d.keys, count), failed
	}
	out := d.out[:len(r.ops)]
	for s, batch := range d.batch {
		n := len(d.bops[s])
		if n == 0 {
			continue
		}
		bres := d.bres[:n]
		t := now()
		batch.ApplyBatch(0, d.bops[s], bres)
		span += now() - t
		for i, p := range d.pos[s] {
			out[p] = store.Result{OK: bres[i].OK, Err: bres[i].Err}
		}
	}
	check, failed = foldStoreResults(out)
	return span, check, failed
}

// --- store ------------------------------------------------------------------

type storeRung struct {
	st   *store.Store
	res  []store.Result
	keys []int64
}

func newStoreRung(sp *spec) (*storeRung, error) {
	st, err := store.New(sp.storeConfig())
	if err != nil {
		return nil, err
	}
	return &storeRung{st: st}, nil
}

func (s *storeRung) prep(*request)       {}
func (s *storeRung) store() *store.Store { return s.st }
func (s *storeRung) close() error        { return s.st.Close() }

func (s *storeRung) run(r *request) (span time.Duration, check uint64, failed int) {
	if r.isRange() {
		// The store's own range primitive is per shard; the rung walks
		// the shards in turn, which at one P costs what a scatter does.
		countOnly := r.req.Kind == workload.ReqRangeCount
		s.keys = s.keys[:0]
		var count uint64
		for sh := 0; sh < s.st.Shards(); sh++ {
			t := now()
			keys, n, err := s.st.ScanShard(sh, r.req.Lo, r.req.Hi, 0, countOnly)
			span += now() - t
			if err != nil {
				failed = 1
			}
			count += n
			s.keys = append(s.keys, keys...)
			store.RecycleScanKeys(keys)
		}
		slices.Sort(s.keys)
		return span, foldRange(countOnly, s.keys, count), failed
	}
	n := len(r.ops)
	if cap(s.res) < n {
		s.res = make([]store.Result, n)
	}
	res := s.res[:n]
	t := now()
	err := s.st.DoInto(r.ops, res)
	span = now() - t
	if err != nil {
		return span, 0, n
	}
	check, failed = foldStoreResults(res)
	return span, check, failed
}

// --- exec and resil ---------------------------------------------------------

// foldExec folds a merged exec.Result; a partial result fails the whole
// request, since the caller cannot tell which answers to trust.
func foldExec(r *request, out *exec.Result, err error) (uint64, int) {
	if err != nil || out == nil || out.Partial() {
		return 0, r.weight()
	}
	if r.isRange() {
		return foldRange(r.req.Kind == workload.ReqRangeCount, out.Keys, out.Count), 0
	}
	return foldStoreResults(out.Results)
}

type execRung struct {
	st *store.Store
	ex *exec.Executor
}

// execConfig is the executor configuration of the fan-out deployment: no
// leg budget, so keyed legs write straight into the merged result.
var execConfig = exec.Config{LegTimeout: -1}

func newExecRung(sp *spec) (*execRung, error) {
	st, err := store.New(sp.storeConfig())
	if err != nil {
		return nil, err
	}
	ex, err := exec.New(st, execConfig)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &execRung{st: st, ex: ex}, nil
}

func (e *execRung) prep(*request)       {}
func (e *execRung) store() *store.Store { return e.st }

func (e *execRung) close() error {
	if err := e.ex.Close(); err != nil {
		return err
	}
	return e.st.Close()
}

func (e *execRung) run(r *request) (span time.Duration, check uint64, failed int) {
	t := now()
	h, err := e.ex.Submit(r.req)
	var out *exec.Result
	if err == nil {
		out = h.Wait()
	}
	span = now() - t
	check, failed = foldExec(r, out, err)
	return span, check, failed
}

type resilRung struct {
	st *store.Store
	c  *resil.Client
}

func newResilRung(sp *spec) (*resilRung, error) {
	st, err := store.New(sp.storeConfig())
	if err != nil {
		return nil, err
	}
	c, err := resil.New(st, execConfig, resil.Config{Hedge: true, Breaker: true})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &resilRung{st: st, c: c}, nil
}

func (e *resilRung) prep(*request)       {}
func (e *resilRung) store() *store.Store { return e.st }

func (e *resilRung) close() error {
	if err := e.c.Close(); err != nil {
		return err
	}
	return e.st.Close()
}

func (e *resilRung) run(r *request) (span time.Duration, check uint64, failed int) {
	t := now()
	out, err := e.c.Do(r.req)
	span = now() - t
	check, failed = foldExec(r, out, err)
	return span, check, failed
}

// newClientRung builds the deployment the workload's closed-loop client
// talks to.
func newClientRung(sp *spec) (rung, error) {
	if sp.viaResil {
		return newResilRung(sp)
	}
	return newStoreRung(sp)
}

// --- counting scheme --------------------------------------------------------

// countingScheme counts the barrier calls a structure makes. It always
// offers the optional fused-window methods and forwards them when the
// inner scheme has them; otherwise it does what smr.Window would have
// done without them, so wrapping never changes the protocol.
type countingScheme struct {
	smr.Scheme
	readPtrs, brackets, retires uint64
}

func (c *countingScheme) BeginOp(tid int) {
	c.brackets++
	c.Scheme.BeginOp(tid)
}

func (c *countingScheme) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	c.readPtrs++
	return c.Scheme.ReadPtr(tid, idx, src, w)
}

func (c *countingScheme) Retire(tid int, r mem.Ref) {
	c.retires++
	c.Scheme.Retire(tid, r)
}

func (c *countingScheme) Rebracket(tid int) {
	c.brackets++
	if rb, ok := c.Scheme.(smr.Rebracketer); ok {
		rb.Rebracket(tid)
		return
	}
	c.Scheme.EndOp(tid)
	c.Scheme.BeginOp(tid)
}

func (c *countingScheme) FusedWindowCap() int {
	if wc, ok := c.Scheme.(smr.WindowCapper); ok {
		return wc.FusedWindowCap()
	}
	return 0 // smr.BeginOps reads a non-positive cap as "no cap"
}
