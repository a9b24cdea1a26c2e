package resil_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs/rec"
	"repro/internal/resil"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// newStore builds a plain (ungated) sharded store for policy tests.
func newStore(t *testing.T, shards, workers, keyRange int) *store.Store {
	t.Helper()
	specs := make([]store.ShardSpec, shards)
	for i := range specs {
		specs[i] = store.ShardSpec{Scheme: "ebr", Structure: "hashmap", Workers: workers}
	}
	st, err := store.New(store.Config{Shards: specs, KeyRange: keyRange})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// keysOnShard returns n keys the store routes to shard s.
func keysOnShard(t *testing.T, st *store.Store, s, keyRange, n int) []int64 {
	t.Helper()
	var keys []int64
	for k := int64(0); k < int64(keyRange) && len(keys) < n; k++ {
		if st.ShardFor(k) == s {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("only %d of %d keys route to shard %d", len(keys), n, s)
	}
	return keys
}

// TestRetryErrorUnwraps pins the error-chain contract: the typed leg
// failures stay matchable through RetryError and exec.ShardError
// wrapping, in both synthetic chains and chains assembled by a real
// gave-up retry loop.
func TestRetryErrorUnwraps(t *testing.T) {
	syn := &resil.RetryError{Attempts: 3, Err: &exec.ShardError{Shard: 2, Reason: exec.ErrShed}}
	if !errors.Is(syn, exec.ErrShed) {
		t.Fatal("RetryError does not unwrap to the shed sentinel")
	}
	var serr *exec.ShardError
	if !errors.As(syn, &serr) || serr.Shard != 2 {
		t.Fatalf("RetryError does not unwrap to the shard error: %v", syn)
	}

	st := newStore(t, 4, 1, 256)
	cl, err := resil.New(st, exec.Config{}, resil.Config{
		MaxAttempts: 2,
		RetryBase:   100 * time.Microsecond,
		RetryCap:    200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := st.CloseShard(1); err != nil {
		t.Fatal(err)
	}
	keys := keysOnShard(t, st, 1, 256, 4)
	res, err := cl.Do(workload.Req{Kind: workload.ReqMultiGet, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial() || len(res.ShardErrs) != 1 {
		t.Fatalf("closed shard did not surface as a partial result: %+v", res)
	}
	chain := error(&res.ShardErrs[0])
	if !errors.Is(chain, store.ErrShardClosed) {
		t.Fatalf("final shard error does not unwrap to ErrShardClosed: %v", chain)
	}
	var rerr *resil.RetryError
	if !errors.As(chain, &rerr) || rerr.Attempts != 2 {
		t.Fatalf("final shard error does not carry the retry record: %v", chain)
	}
	// Per-key result slots must tell the same story as ShardErrs.
	for i, r := range res.Results {
		if r.Err == nil {
			t.Fatalf("key %d on the closed shard reported success", i)
		}
		if !errors.Is(r.Err, store.ErrShardClosed) {
			t.Fatalf("key %d error does not unwrap to ErrShardClosed: %v", i, r.Err)
		}
	}
}

// TestRetryRecoversAfterReopen wedges one shard, heals it mid-backoff,
// and checks the retry loop merges the recovered keys back clean.
func TestRetryRecoversAfterReopen(t *testing.T) {
	st := newStore(t, 4, 1, 256)
	cl, err := resil.New(st, exec.Config{}, resil.Config{
		MaxAttempts: 3,
		RetryBase:   50 * time.Millisecond, // jittered [25ms, 50ms): reopen far earlier
		RetryCap:    100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := st.CloseShard(1); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		_ = st.ReopenShard(1)
	}()
	keys := append(keysOnShard(t, st, 1, 256, 4), keysOnShard(t, st, 0, 256, 4)...)
	res, err := cl.Do(workload.Req{Kind: workload.ReqMultiGet, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial() {
		t.Fatalf("retry did not recover the healed shard: %+v", res.ShardErrs)
	}
	for i, r := range res.Results {
		if r.Err != nil {
			t.Fatalf("key %d still failing after recovery: %v", i, r.Err)
		}
	}
	s := cl.Stats()
	if s.Retries == 0 || s.Recovered != 1 {
		t.Fatalf("recovery not accounted: retries %d recovered %d", s.Retries, s.Recovered)
	}
	if rs := cl.RetriesByShard(); rs[1] == 0 {
		t.Fatalf("per-shard retry ledger missed the faulted shard: %v", rs)
	}
}

// TestRetryBudgetExhaustion pins the amplification bound: with the
// token bucket drained, retry rounds are refused — and a negative
// budget disables retries outright.
func TestRetryBudgetExhaustion(t *testing.T) {
	st := newStore(t, 4, 1, 256)
	cl, err := resil.New(st, exec.Config{}, resil.Config{
		MaxAttempts: 3,
		RetryBase:   100 * time.Microsecond,
		RetryCap:    200 * time.Microsecond,
		RetryBudget: 0.01, // earns ~nothing per request
		BudgetBurst: 1,    // one token: any multi-key retry round overdraws
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := st.CloseShard(1); err != nil {
		t.Fatal(err)
	}
	keys := keysOnShard(t, st, 1, 256, 4)
	res, err := cl.Do(workload.Req{Kind: workload.ReqMultiGet, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial() {
		t.Fatal("exhausted budget still produced a clean result on a closed shard")
	}
	s := cl.Stats()
	if s.BudgetExhausted == 0 {
		t.Fatalf("drained bucket did not refuse the retry round: %+v", s)
	}
	if s.Retries != 0 {
		t.Fatalf("refused round still retried %d times", s.Retries)
	}
	// ShardErrs must NOT carry a RetryError: the request never got a
	// second attempt, so there is no retry record to report.
	var rerr *resil.RetryError
	if errors.As(&res.ShardErrs[0], &rerr) {
		t.Fatalf("unretried failure wrapped in RetryError: %v", &res.ShardErrs[0])
	}

	// Negative budget: retries disabled entirely, no exhaustion noise.
	cl2, err := resil.New(st, exec.Config{}, resil.Config{
		MaxAttempts: 3,
		RetryBase:   100 * time.Microsecond,
		RetryCap:    200 * time.Microsecond,
		RetryBudget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.Do(workload.Req{Kind: workload.ReqMultiGet, Keys: keys}); err != nil {
		t.Fatal(err)
	}
	if s := cl2.Stats(); s.Retries != 0 {
		t.Fatalf("negative budget still retried %d times", s.Retries)
	}
}

// TestBreakerLifecycle drives one shard's breaker around the full loop
// on its built-in tuning — healthy, tripped open by the failure EWMA,
// probing after the heal, healthy again — against a deterministically
// wedged shard, and checks the health moves landed on the flight
// recorder. A second shard, degraded by its monitor verdict, fast-fails
// its keys and admits again on the sample that clears the verdict.
func TestBreakerLifecycle(t *testing.T) {
	st := newStore(t, 4, 1, 256)
	clock := rec.NewClock()
	recorder := rec.NewRecorder(clock, 0)
	budget := telemetry.Budget{Threads: 2, Threshold: 16}
	mon := telemetry.NewMonitor(nil, []telemetry.Domain{
		{Budget: budget}, {Budget: budget}, {Budget: budget}, {Budget: budget},
	})
	cl, err := resil.New(st, exec.Config{Verdicts: mon, Recorder: recorder}, resil.Config{
		MaxAttempts: 1, // isolate the breaker: no retries
		RetryBudget: -1,
		Breaker:     true,
		Clock:       clock,
		Recorder:    recorder,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ex := cl.Executor()
	if err := st.CloseShard(1); err != nil {
		t.Fatal(err)
	}
	keys := keysOnShard(t, st, 1, 256, 2)
	req := workload.Req{Kind: workload.ReqMultiGet, Keys: keys}

	// Failures accumulate in the EWMA until it trips.
	deadline := time.Now().Add(2 * time.Second)
	for ex.Health(1) != exec.Open {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened: %+v", cl.Stats().Breakers[1])
		}
		if _, err := cl.Do(req); err != nil {
			t.Fatal(err)
		}
	}

	// The open shard fast-fails locally with the typed sentinel.
	expectFastFail(t, cl, req)

	// Heal the shard; once the open window passes, the next requests are
	// probes, and enough probe successes heal the shard.
	if err := st.ReopenShard(1); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for ex.Health(1) != exec.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after heal: %v %+v", ex.Health(1), cl.Stats().Breakers[1])
		}
		if _, err := cl.Do(req); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if bs := cl.Stats().Breakers[1]; bs.Opens != 1 {
		t.Fatalf("breaker opened %d times, want exactly 1", bs.Opens)
	}

	// The recorder holds the walk for shard 1, in order.
	var walk [][2]uint64
	for _, ev := range recorder.Snapshot() {
		if ev.Kind == rec.KindHealth && ev.Shard == 1 {
			walk = append(walk, [2]uint64{ev.B, ev.A}) // prev → next
		}
	}
	want := [][2]uint64{
		{uint64(exec.Healthy), uint64(exec.Open)},
		{uint64(exec.Open), uint64(exec.Probing)},
		{uint64(exec.Probing), uint64(exec.Healthy)},
	}
	if len(walk) != len(want) {
		t.Fatalf("breaker stamped %d transitions, want %d: %v", len(walk), len(want), walk)
	}
	for i := range want {
		if walk[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, walk[i], want[i])
		}
	}

	// A verdict-degraded shard fast-fails, and admits as soon as the
	// verdict clears: no open window, no probes.
	req = workload.Req{Kind: workload.ReqMultiGet, Keys: keysOnShard(t, st, 2, 256, 2)}
	feed := func(growing bool) {
		for i := 0; i < 20; i++ {
			p := telemetry.Point{Ops: uint64(i) * 100, Retired: uint64(4 + i%5)}
			if growing {
				p.Retired = uint64(i) * 100
			}
			mon.Observe(2, p)
		}
	}
	feed(true)
	if h := ex.Health(2); h != exec.Degraded {
		t.Fatalf("not-robust shard is %v, want degraded", h)
	}
	expectFastFail(t, cl, req)
	feed(false)
	res, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial() {
		t.Fatalf("shard still refused after its verdict cleared: %+v", res.ShardErrs)
	}
}

// expectFastFail checks that req's one shard is refused locally.
func expectFastFail(t *testing.T, cl *resil.Client, req workload.Req) {
	t.Helper()
	before := cl.Stats().FastFails
	res, err := cl.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShardErrs) != 1 || !errors.Is(&res.ShardErrs[0], resil.ErrBreakerOpen) || !res.ShardErrs[0].NotExecuted {
		t.Fatalf("shard did not fast-fail: %+v", res.ShardErrs)
	}
	if got := cl.Stats().FastFails - before; got != uint64(len(req.Keys)) {
		t.Fatalf("fast-fail ledger moved by %d, want %d", got, len(req.Keys))
	}
}

// TestStalledWriteNotRetried issues fresh-key inserts then deletes
// through a client whose 20µs leg budget stalls many write legs. A
// stalled leg's call still applies, so re-submitting it would apply the
// write twice and answer "already present" / "already gone" for a key
// the caller wrote once. Only legs that never ran may be retried: every
// answered insert must be true, and so must every answered delete of a
// key whose insert answered.
func TestStalledWriteNotRetried(t *testing.T) {
	const clients, rounds, width = 8, 500, 8
	st := newStore(t, 4, 1, clients*rounds*width)
	cl, err := resil.New(st, exec.Config{LegTimeout: 20 * time.Microsecond}, resil.Config{
		MaxAttempts: 4, RetryBase: 20 * time.Microsecond, RetryCap: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wrong, answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			keys := make([]int64, width)
			for r := 0; r < rounds; r++ {
				for j := range keys {
					keys[j] = int64((c*rounds+r)*width + j)
				}
				ins, err := cl.Do(workload.Req{Kind: workload.ReqMultiInsert, Keys: keys})
				if err != nil {
					t.Error(err)
					return
				}
				del, err := cl.Do(workload.Req{Kind: workload.ReqMultiDelete, Keys: keys})
				if err != nil {
					t.Error(err)
					return
				}
				for j := range keys {
					if ins.Results[j].Err != nil {
						continue
					}
					answered.Add(1)
					if !ins.Results[j].OK {
						wrong.Add(1)
					}
					if del.Results[j].Err == nil {
						answered.Add(1)
						if !del.Results[j].OK {
							wrong.Add(1)
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if answered.Load() == 0 {
		t.Fatal("no write answered")
	}
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of %d answered writes wrong: a stalled write leg was retried and applied twice", n, answered.Load())
	}
}
