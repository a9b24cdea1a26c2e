// Package dstest provides the shared conformance harness the per-structure
// test packages run: model-based sequential suites, linearizability-checked
// concurrent rounds, disjoint-key churn, and safety accounting.
//
// Every check runs for each (scheme, structure) pair the paper classifies
// as applicable (registry.Applicable); the deterministic incompatibility
// demonstrations for the non-applicable pairs live in the core/adversary
// package instead.
package dstest

import (
	"sort"
	"sync"
	"testing"

	"repro/internal/ds"
	"repro/internal/hist"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// Env bundles an arena and a scheme instance for one test.
type Env struct {
	A *mem.Arena
	S smr.Scheme
	N int
}

// NewEnv builds an arena and the named scheme over it. slots <= 0 selects a
// default heap size.
func NewEnv(tb testing.TB, scheme string, n, slots, payloadWords int, mode mem.ReclaimMode) *Env {
	tb.Helper()
	if slots <= 0 {
		slots = 1 << 16
	}
	a := mem.NewArena(mem.Config{
		Slots:        slots,
		PayloadWords: payloadWords,
		MetaWords:    smr.MetaWords,
		Threads:      n,
		Mode:         mode,
	})
	s, err := all.New(scheme, a, n, 0)
	if err != nil {
		tb.Fatalf("building scheme %s: %v", scheme, err)
	}
	return &Env{A: a, S: s, N: n}
}

// AssertSafe fails the test if the run violated Definition 4.2. Optimistic
// (rollback-requiring) schemes are allowed unsafe accesses provided the
// stale values never escape (VBR/NBR read reclaimed memory and discard the
// result; their update attempts through invalid pointers are guaranteed to
// fail); every other scheme must have performed only safe accesses.
// Segmentation faults (system-space accesses) and life-cycle violations are
// never allowed.
func (e *Env) AssertSafe(tb testing.TB) {
	tb.Helper()
	sn := e.A.Stats().Snapshot()
	if !e.S.Props().RequiresRollback {
		if n := sn.UnsafeAccesses(); n != 0 {
			tb.Errorf("%s: %d unsafe accesses (loads=%d stores=%d faults=%d)",
				e.S.Name(), n, sn.UnsafeLoads, sn.UnsafeStores, sn.Faults)
		}
	}
	if sn.Faults != 0 {
		tb.Errorf("%s: %d segmentation faults (Definition 4.2, Condition 1)", e.S.Name(), sn.Faults)
	}
	if sn.Violations != 0 {
		tb.Errorf("%s: %d life-cycle violations", e.S.Name(), sn.Violations)
	}
	if st := e.S.Stats().Snapshot(); st.StaleUses != 0 {
		tb.Errorf("%s: %d stale value uses (Definition 4.2, Condition 3 violation)", e.S.Name(), st.StaleUses)
	}
}

// rng is a splitmix64 pseudo-random generator for reproducible workloads.
type rng uint64

func newRNG(seed uint64) *rng { r := rng(seed*2685821657736338717 + 1); return &r }

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// SequentialSet drives a single-threaded model-based suite against set.
func SequentialSet(tb testing.TB, set ds.Set, keyRange, steps int) {
	tb.Helper()
	model := make(map[int64]bool)
	r := newRNG(42)
	for i := 0; i < steps; i++ {
		key := int64(r.intn(keyRange))
		switch r.intn(3) {
		case 0:
			got, err := set.Insert(0, key)
			if err != nil {
				tb.Fatalf("step %d: insert(%d): %v", i, key, err)
			}
			want := !model[key]
			if got != want {
				tb.Fatalf("step %d: insert(%d) = %v, model says %v", i, key, got, want)
			}
			model[key] = true
		case 1:
			got, err := set.Delete(0, key)
			if err != nil {
				tb.Fatalf("step %d: delete(%d): %v", i, key, err)
			}
			want := model[key]
			if got != want {
				tb.Fatalf("step %d: delete(%d) = %v, model says %v", i, key, got, want)
			}
			delete(model, key)
		default:
			got, err := set.Contains(0, key)
			if err != nil {
				tb.Fatalf("step %d: contains(%d): %v", i, key, err)
			}
			if got != model[key] {
				tb.Fatalf("step %d: contains(%d) = %v, model says %v", i, key, got, model[key])
			}
		}
	}
	// Cross-check the final contents for structures that expose Keys().
	if ks, ok := set.(interface{ Keys() []int64 }); ok {
		keys := ks.Keys()
		if len(keys) != len(model) {
			tb.Fatalf("final size %d, model %d", len(keys), len(model))
		}
		for _, k := range keys {
			if !model[k] {
				tb.Fatalf("final contents contain %d, model does not", k)
			}
		}
	}
}

// SequentialQueue drives a single-threaded model-based suite.
func SequentialQueue(tb testing.TB, q ds.Queue, steps int) {
	tb.Helper()
	var model []int64
	r := newRNG(43)
	for i := 0; i < steps; i++ {
		if r.intn(2) == 0 || len(model) == 0 && r.intn(4) != 0 {
			v := int64(r.next() % 1000)
			if err := q.Enqueue(0, v); err != nil {
				tb.Fatalf("step %d: enqueue: %v", i, err)
			}
			model = append(model, v)
		} else {
			v, ok, err := q.Dequeue(0)
			if err != nil {
				tb.Fatalf("step %d: dequeue: %v", i, err)
			}
			if ok != (len(model) > 0) {
				tb.Fatalf("step %d: dequeue ok=%v, model len %d", i, ok, len(model))
			}
			if ok {
				if v != model[0] {
					tb.Fatalf("step %d: dequeue = %d, model head %d", i, v, model[0])
				}
				model = model[1:]
			}
		}
	}
}

// SequentialStack drives a single-threaded model-based suite.
func SequentialStack(tb testing.TB, st ds.Stack, steps int) {
	tb.Helper()
	var model []int64
	r := newRNG(44)
	for i := 0; i < steps; i++ {
		if r.intn(2) == 0 || len(model) == 0 && r.intn(4) != 0 {
			v := int64(r.next() % 1000)
			if err := st.Push(0, v); err != nil {
				tb.Fatalf("step %d: push: %v", i, err)
			}
			model = append(model, v)
		} else {
			v, ok, err := st.Pop(0)
			if err != nil {
				tb.Fatalf("step %d: pop: %v", i, err)
			}
			if ok != (len(model) > 0) {
				tb.Fatalf("step %d: pop ok=%v, model len %d", i, ok, len(model))
			}
			if ok {
				top := model[len(model)-1]
				if v != top {
					tb.Fatalf("step %d: pop = %d, model top %d", i, v, top)
				}
				model = model[:len(model)-1]
			}
		}
	}
}

// rebracketKeys is the iterators' per-bracket emission chunk: a scan over
// more live keys than this crosses a re-bracket (on the skip list, a
// re-seek).
const rebracketKeys = 512

// IterateSet verifies the ds.Iterator contract. newSet builds the
// structure over the scheme it is given (a rollback-injecting wrapper of
// env.S). ordered selects the globally-ascending checks.
//
//   - Quiescent fast path: after single-threaded churn, scans from
//     KeyMin, a present key, an absent key and a key above the maximum
//     report exactly the model's keys ≥ lo, each once, ascending on
//     ordered structures; an early-stopped scan stops.
//   - Rollbacks: the same scans while one protected read in
//     rollbackOneIn demands a rollback, so walks restart (and the skip
//     list re-seeks) mid-scan without skipping or repeating a key.
//   - Concurrent fallback: while threads 1..N-1 churn a disjoint upper
//     key range, repeated scans on tid 0 report no key below lo and none
//     twice, and every persistent key ≥ lo exactly once.
//
// keyRange must leave more than rebracketKeys keys after the prefill's
// random churn (about 58 % of keyRange), so every full scan re-brackets.
func IterateSet(tb testing.TB, env *Env, newSet func(smr.Scheme) (ds.Set, error), keyRange int, ordered bool) {
	tb.Helper()
	rs := &rollbackScheme{Scheme: env.S, failRead: -1}
	set, err := newSet(rs)
	if err != nil {
		tb.Fatal(err)
	}
	it, ok := set.(ds.Iterator)
	if !ok {
		tb.Fatalf("%s does not implement ds.Iterator", set.Name())
	}
	model := make(map[int64]bool)
	r := newRNG(77)
	for i := 0; i < keyRange*2; i++ {
		key := int64(r.intn(keyRange))
		if r.intn(3) != 0 {
			if _, err := set.Insert(0, key); err != nil {
				tb.Fatalf("prefill insert(%d): %v", key, err)
			}
			model[key] = true
		} else {
			if _, err := set.Delete(0, key); err != nil {
				tb.Fatalf("prefill delete(%d): %v", key, err)
			}
			delete(model, key)
		}
	}
	if len(model) <= rebracketKeys {
		tb.Fatalf("prefill left %d keys; a full scan must cross the %d-key re-bracket", len(model), rebracketKeys)
	}
	sorted := make([]int64, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	absent := sorted[len(sorted)/2] + 1
	for model[absent] {
		absent++
	}
	los := []int64{ds.KeyMin, sorted[len(sorted)/3], absent, sorted[len(sorted)-1] + 1}
	for _, lo := range los {
		iterateQuiescent(tb, it, sorted, lo, ordered, "quiescent")
	}
	visited := 0
	if err := it.Iterate(0, func(int64) bool { visited++; return false }); err != nil {
		tb.Fatalf("early-stopped iterate: %v", err)
	}
	if visited != 1 {
		tb.Errorf("early-stopped iterate visited %d keys, want 1", visited)
	}

	rs.flaky = newRNG(99)
	for _, lo := range los {
		iterateQuiescent(tb, it, sorted, lo, ordered, "rolled-back")
	}
	rs.flaky = nil
	if env.N < 2 {
		return
	}
	// Concurrent phase: the model keys stay untouched (persistent); each
	// churner owns a disjoint slice of [keyRange, 2*keyRange). The scans'
	// lower bounds fall below, inside and above the churned range.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for tid := 1; tid < env.N; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r := newRNG(uint64(tid) + 7777)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := int64(keyRange + r.intn(keyRange)/(env.N-1)*(env.N-1) + (tid - 1))
				var err error
				if i%2 == 0 {
					_, err = set.Insert(tid, key)
				} else {
					_, err = set.Delete(tid, key)
				}
				if err != nil {
					tb.Errorf("churner T%d: %v", tid, err)
					return
				}
			}
		}(tid)
	}
	churnLos := []int64{ds.KeyMin, sorted[len(sorted)/3], int64(keyRange + keyRange/2), int64(2 * keyRange)}
	for pass, lo := range churnLos {
		if tb.Failed() {
			break
		}
		seen := make(map[int64]int)
		last, inOrder := int64(ds.KeyMin), true
		if err := it.IterateFrom(0, lo, func(k int64) bool {
			seen[k]++
			inOrder = inOrder && k > last
			last = k
			return true
		}); err != nil {
			tb.Errorf("concurrent scan pass %d from %d: %v", pass, lo, err)
			break
		}
		for k, c := range seen {
			if k < lo {
				tb.Errorf("pass %d from %d: key %d below the bound reported under mutation", pass, lo, k)
			}
			if c > 1 {
				tb.Errorf("pass %d from %d: key %d reported %d times under mutation", pass, lo, k, c)
			}
		}
		for k := range model {
			if k >= lo && seen[k] == 0 {
				tb.Errorf("pass %d from %d: persistent key %d not reported", pass, lo, k)
			}
		}
		if ordered && !inOrder {
			tb.Errorf("pass %d from %d: ordered structure emitted out of order under mutation", pass, lo)
		}
	}
	close(stop)
	wg.Wait()
}

// iterateQuiescent checks one scan from lo on a quiescent structure
// against the sorted model: exactly the keys ≥ lo, each once, ascending
// when ordered; on ordered structures an early stop after the first key
// yields the smallest key ≥ lo.
func iterateQuiescent(tb testing.TB, it ds.Iterator, sorted []int64, lo int64, ordered bool, what string) {
	tb.Helper()
	want := sorted[sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo }):]
	var got []int64
	if err := it.IterateFrom(0, lo, func(k int64) bool { got = append(got, k); return true }); err != nil {
		tb.Fatalf("%s scan from %d: %v", what, lo, err)
	}
	if !ordered {
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if len(got) != len(want) {
		tb.Fatalf("%s scan from %d: %d keys, want the model's %d", what, lo, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("%s scan from %d: key #%d is %d, want %d", what, lo, i, got[i], want[i])
		}
	}
	if !ordered || len(want) == 0 {
		return
	}
	var first []int64
	if err := it.IterateFrom(0, lo, func(k int64) bool { first = append(first, k); return false }); err != nil {
		tb.Fatalf("%s early-stopped scan from %d: %v", what, lo, err)
	}
	if len(first) != 1 || first[0] != want[0] {
		tb.Errorf("%s early-stopped scan from %d reported %v, want [%d]", what, lo, first, want[0])
	}
}

// RestartStormSet drives a restart storm: a chain of live keys, every
// thread inserting and deleting shared keys while also running
// full-chain searches, so unlink contention lands on long traversal
// paths. A find that rewound to the head on every lost unlink could burn
// toward the maxSteps guard (~millions of steps) inside a single
// epoch-pinning bracket; finds that resume from their validated
// predecessor must keep the worst operation within a small multiple of
// the chain length, with no guard trip. backlogBudget, when non-zero,
// also bounds the heap's peak retired backlog (the EBR symptom of the
// storm: a pinned epoch balloons the backlog with no fault injected).
func RestartStormSet(tb testing.TB, env *Env, set ds.Set, chain, opsPerThread int, backlogBudget uint64) {
	tb.Helper()
	tr, ok := set.(ds.TravReporter)
	if !ok {
		tb.Fatalf("%s does not expose traversal counters", set.Name())
	}
	for k := 0; k < chain; k++ {
		if _, err := set.Insert(0, int64(k)); err != nil {
			tb.Fatalf("prefill insert(%d): %v", k, err)
		}
	}
	var wg sync.WaitGroup
	for tid := 0; tid < env.N; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			r := newRNG(uint64(tid) + 555)
			for i := 0; i < opsPerThread; i++ {
				// Shared (not disjoint) keys: colliding unlink CASes on
				// the same marked nodes are what force restarts.
				key := int64(r.intn(chain))
				var err error
				switch r.intn(4) {
				case 0:
					_, err = set.Delete(tid, key)
				case 1:
					_, err = set.Insert(tid, key)
				default:
					// A far-key search walks the whole chain — the victim
					// of the storm.
					_, err = set.Contains(tid, int64(chain-1))
				}
				if err != nil {
					tb.Errorf("T%d op %d: %v", tid, i, err)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	if tb.Failed() {
		return
	}
	tv := tr.TravSnapshot()
	if tv.GuardTrips != 0 {
		tb.Errorf("%d traversal guard trips under churn", tv.GuardTrips)
	}
	if bound := uint64(64 * chain); tv.MaxOpSteps > bound {
		tb.Errorf("worst single-op traversal took %d steps, want <= %d (chain %d): restart storm",
			tv.MaxOpSteps, bound, chain)
	}
	if backlogBudget != 0 {
		if peak := env.A.Stats().MaxRetired(); peak > backlogBudget {
			tb.Errorf("peak retired backlog %d exceeds budget %d with no fault injected", peak, backlogBudget)
		}
	}
}

// runRounds executes rounds of concurrent operations with a barrier between
// rounds and returns the per-round history windows, ready for the chained
// linearizability checker.
func runRounds(tb testing.TB, n, rounds, opsPerThread int,
	op func(tid, round, i int, rec *hist.Recorder)) [][]hist.Op {
	tb.Helper()
	rec := hist.NewRecorder(n)
	var windows [][]hist.Op
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for tid := 0; tid < n; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for i := 0; i < opsPerThread; i++ {
					op(tid, round, i, rec)
				}
			}(tid)
		}
		wg.Wait()
		windows = append(windows, rec.History())
		rec.Reset()
	}
	return windows
}

// ConcurrentSet runs linearizability-checked concurrent rounds against set.
func ConcurrentSet(tb testing.TB, env *Env, set ds.Set, rounds, opsPerThread, keyRange int) {
	tb.Helper()
	windows := runRounds(tb, env.N, rounds, opsPerThread, func(tid, round, i int, rec *hist.Recorder) {
		r := newRNG(uint64(tid)<<32 + uint64(round)<<16 + uint64(i))
		key := int64(r.intn(keyRange))
		switch r.intn(3) {
		case 0:
			p := rec.Begin(tid, hist.OpInsert, key)
			ok, err := set.Insert(tid, key)
			if err != nil {
				tb.Errorf("T%d insert(%d): %v", tid, key, err)
				return
			}
			rec.End(tid, p, ok, 0)
		case 1:
			p := rec.Begin(tid, hist.OpDelete, key)
			ok, err := set.Delete(tid, key)
			if err != nil {
				tb.Errorf("T%d delete(%d): %v", tid, key, err)
				return
			}
			rec.End(tid, p, ok, 0)
		default:
			p := rec.Begin(tid, hist.OpContains, key)
			ok, err := set.Contains(tid, key)
			if err != nil {
				tb.Errorf("T%d contains(%d): %v", tid, key, err)
				return
			}
			rec.End(tid, p, ok, 0)
		}
	})
	if tb.Failed() {
		return
	}
	ok, err := hist.CheckChained(hist.SetSpec{}, windows)
	if err != nil {
		tb.Fatalf("linearizability check: %v", err)
	}
	if !ok {
		tb.Errorf("%s over %s: history not linearizable", set.Name(), env.S.Name())
	}
}

// ConcurrentQueue runs linearizability-checked concurrent rounds against q.
func ConcurrentQueue(tb testing.TB, env *Env, q ds.Queue, rounds, opsPerThread int) {
	tb.Helper()
	windows := runRounds(tb, env.N, rounds, opsPerThread, func(tid, round, i int, rec *hist.Recorder) {
		r := newRNG(uint64(tid)<<32 + uint64(round)<<16 + uint64(i) + 7)
		if r.intn(2) == 0 {
			v := int64(r.next() % 1 << 20)
			p := rec.Begin(tid, hist.OpEnqueue, v)
			if err := q.Enqueue(tid, v); err != nil {
				tb.Errorf("T%d enqueue: %v", tid, err)
				return
			}
			rec.End(tid, p, true, 0)
		} else {
			p := rec.Begin(tid, hist.OpDequeue, 0)
			v, ok, err := q.Dequeue(tid)
			if err != nil {
				tb.Errorf("T%d dequeue: %v", tid, err)
				return
			}
			rec.End(tid, p, ok, v)
		}
	})
	if tb.Failed() {
		return
	}
	ok, err := hist.CheckChained(hist.QueueSpec{}, windows)
	if err != nil {
		tb.Fatalf("linearizability check: %v", err)
	}
	if !ok {
		tb.Errorf("%s over %s: history not linearizable", q.Name(), env.S.Name())
	}
}

// ConcurrentStack runs linearizability-checked concurrent rounds against st.
func ConcurrentStack(tb testing.TB, env *Env, st ds.Stack, rounds, opsPerThread int) {
	tb.Helper()
	windows := runRounds(tb, env.N, rounds, opsPerThread, func(tid, round, i int, rec *hist.Recorder) {
		r := newRNG(uint64(tid)<<32 + uint64(round)<<16 + uint64(i) + 11)
		if r.intn(2) == 0 {
			v := int64(r.next() % 1 << 20)
			p := rec.Begin(tid, hist.OpPush, v)
			if err := st.Push(tid, v); err != nil {
				tb.Errorf("T%d push: %v", tid, err)
				return
			}
			rec.End(tid, p, true, 0)
		} else {
			p := rec.Begin(tid, hist.OpPop, 0)
			v, ok, err := st.Pop(tid)
			if err != nil {
				tb.Errorf("T%d pop: %v", tid, err)
				return
			}
			rec.End(tid, p, ok, v)
		}
	})
	if tb.Failed() {
		return
	}
	ok, err := hist.CheckChained(hist.StackSpec{}, windows)
	if err != nil {
		tb.Fatalf("linearizability check: %v", err)
	}
	if !ok {
		tb.Errorf("%s over %s: history not linearizable", st.Name(), env.S.Name())
	}
}

// DisjointChurnSet drives heavy concurrent churn with per-thread disjoint
// key partitions (thread t owns keys ≡ t mod N), so the final contents are
// exactly the union of per-thread models despite full concurrency. It
// exercises reclamation far harder than the checked rounds.
func DisjointChurnSet(tb testing.TB, env *Env, set ds.Set, opsPerThread, keyRange int) {
	tb.Helper()
	models := make([]map[int64]bool, env.N)
	var wg sync.WaitGroup
	for tid := 0; tid < env.N; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			model := make(map[int64]bool)
			models[tid] = model
			r := newRNG(uint64(tid) + 1000)
			for i := 0; i < opsPerThread; i++ {
				key := int64(r.intn(keyRange)*env.N + tid)
				switch r.intn(3) {
				case 0:
					ok, err := set.Insert(tid, key)
					if err != nil {
						tb.Errorf("T%d insert(%d): %v", tid, key, err)
						return
					}
					if ok == model[key] {
						tb.Errorf("T%d insert(%d) = %v with model %v", tid, key, ok, model[key])
						return
					}
					model[key] = true
				case 1:
					ok, err := set.Delete(tid, key)
					if err != nil {
						tb.Errorf("T%d delete(%d): %v", tid, key, err)
						return
					}
					if ok != model[key] {
						tb.Errorf("T%d delete(%d) = %v with model %v", tid, key, ok, model[key])
						return
					}
					delete(model, key)
				default:
					ok, err := set.Contains(tid, key)
					if err != nil {
						tb.Errorf("T%d contains(%d): %v", tid, key, err)
						return
					}
					if ok != model[key] {
						tb.Errorf("T%d contains(%d) = %v with model %v", tid, key, ok, model[key])
						return
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	if tb.Failed() {
		return
	}
	want := make(map[int64]bool)
	for _, m := range models {
		for k := range m {
			want[k] = true
		}
	}
	for key := range want {
		ok, err := set.Contains(0, key)
		if err != nil {
			tb.Fatalf("final contains(%d): %v", key, err)
		}
		if !ok {
			tb.Errorf("final contents missing %d", key)
		}
	}
	if ks, ok := set.(interface{ Keys() []int64 }); ok {
		keys := ks.Keys()
		if len(keys) != len(want) {
			tb.Errorf("final size %d, union of models %d", len(keys), len(want))
		}
	}
}
