package exec_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exec"
	"repro/internal/obs/rec"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// newGatedStore builds a store whose shards are chaos-instrumentable.
func newGatedStore(t *testing.T, shards, workers, keyRange int) (*store.Store, []*sched.Breakpoints, *rec.Recorder) {
	return newGatedStoreDepth(t, shards, workers, keyRange, 0)
}

// newGatedStoreDepth is newGatedStore with an explicit shard
// request-queue capacity — queue-accounting tests narrow it so a parked
// worker wedges the shard queue with a handful of requests.
func newGatedStoreDepth(t *testing.T, shards, workers, keyRange, queueDepth int) (*store.Store, []*sched.Breakpoints, *rec.Recorder) {
	t.Helper()
	recorder := rec.NewRecorder(nil, 0)
	gates := make([]*sched.Breakpoints, shards)
	specs := make([]store.ShardSpec, shards)
	for i := range specs {
		gates[i] = sched.NewBreakpoints()
		specs[i] = store.ShardSpec{Scheme: "ebr", Structure: "michael", Workers: workers, Gate: gates[i]}
	}
	st, err := store.New(store.Config{Shards: specs, KeyRange: keyRange, QueueDepth: queueDepth, Recorder: recorder})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, gates, recorder
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

// awaitParked waits until shard s's worker is demonstrably parked: a
// probe op fails to return within the grace window. The blocked probe
// goroutine drains once the fault heals.
func awaitParked(t *testing.T, st *store.Store, key int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := make(chan struct{})
		go func() {
			_, _ = st.Contains(key)
			close(done)
		}()
		select {
		case <-done:
			time.Sleep(2 * time.Millisecond)
		case <-time.After(150 * time.Millisecond):
			return // probe is stuck behind the parked worker
		}
	}
	t.Fatal("stall fault never parked the shard worker")
}

func TestCompileGroupsByShard(t *testing.T) {
	st, _, _ := newGatedStore(t, 4, 2, 256)
	ex, err := exec.New(st, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	keys := []int64{0, 1, 2, 3, 100, 101, 102, 200}
	p, err := ex.Compile(workload.Req{Kind: workload.ReqMultiGet, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops != len(keys) {
		t.Fatalf("plan carries %d ops, want %d", p.Ops, len(keys))
	}
	want := map[int]int{}
	for _, k := range keys {
		want[st.ShardFor(k)]++
	}
	if len(p.Legs) != len(want) {
		t.Fatalf("plan has %d legs, want %d", len(p.Legs), len(want))
	}
	for i, leg := range p.Legs {
		if leg.Range {
			t.Fatalf("point plan produced a range leg")
		}
		if leg.Ops != want[leg.Shard] {
			t.Fatalf("leg %d: %d ops on shard %d, want %d", i, leg.Ops, leg.Shard, want[leg.Shard])
		}
		if i > 0 && p.Legs[i-1].Shard >= leg.Shard {
			t.Fatalf("legs not in shard order: %v", p.Legs)
		}
	}

	p, err = ex.Compile(workload.Req{Kind: workload.ReqRangeScan, Lo: 10, Hi: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Legs) != st.Shards() {
		t.Fatalf("range plan has %d legs, want one per shard (%d)", len(p.Legs), st.Shards())
	}
	for _, leg := range p.Legs {
		if !leg.Range {
			t.Fatalf("range plan produced a point leg")
		}
	}
	// Inverted intervals compile to the empty scatter.
	p, err = ex.Compile(workload.Req{Kind: workload.ReqRangeCount, Lo: 20, Hi: 10})
	if err != nil || len(p.Legs) != 0 {
		t.Fatalf("inverted interval: legs=%d err=%v", len(p.Legs), err)
	}
	if _, err := ex.Compile(workload.Req{Kind: workload.ReqKind(99)}); err == nil {
		t.Fatal("unknown request kind compiled")
	}
}

// TestMergeDeterminism checks that the merge stage's output is a pure
// function of the data, not of leg completion order: concurrent repeats
// of the same scan agree exactly, multi-key results align with submitted
// positions, limits trim the *merged* ascending order, and counts match.
func TestMergeDeterminism(t *testing.T) {
	w := waiter{t}
	st, _, _ := newGatedStore(t, 4, 2, 1024)
	ex, err := exec.New(st, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	var want []int64
	for k := int64(0); k < 1024; k += 3 {
		if _, err := st.Insert(k); err != nil {
			t.Fatal(err)
		}
		if k >= 100 && k < 700 {
			want = append(want, k)
		}
	}

	const repeats = 16
	results := make([][]int64, repeats)
	var wg sync.WaitGroup
	for i := 0; i < repeats; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := ex.RangeScan(100, 700, 0)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = h.Wait().Keys
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if len(got) != len(want) {
			t.Fatalf("repeat %d: %d keys, want %d", i, len(got), len(want))
		}
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
			t.Fatalf("repeat %d: merged keys not ascending", i)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("repeat %d key %d: got %d want %d", i, j, got[j], want[j])
			}
		}
	}

	// Position alignment: mixed present/absent keys in arbitrary order.
	keys := []int64{999, 0, 500, 301, 3, 7, 600, 11}
	res := w.wait(ex.MultiGet(keys))
	if res.Partial() {
		t.Fatalf("healthy multiget partial: %v", res.ShardErrs)
	}
	for i, k := range keys {
		present := k%3 == 0
		if res.Results[i].Err != nil || res.Results[i].OK != present {
			t.Fatalf("key %d: ok=%v err=%v, want ok=%v", k, res.Results[i].OK, res.Results[i].Err, present)
		}
	}

	// Limit trims the merged ascending order, not per-shard arrival.
	res = w.wait(ex.RangeScan(100, 700, 5))
	if len(res.Keys) != 5 || res.Count != 5 {
		t.Fatalf("limited scan: %d keys count %d, want 5", len(res.Keys), res.Count)
	}
	for j := 0; j < 5; j++ {
		if res.Keys[j] != want[j] {
			t.Fatalf("limited scan key %d: got %d want %d", j, res.Keys[j], want[j])
		}
	}

	res = w.wait(ex.RangeCount(100, 700))
	if res.Count != uint64(len(want)) || res.Keys != nil {
		t.Fatalf("range count = %d (keys %v), want %d", res.Count, res.Keys, len(want))
	}

	// Write fan-out round trip with position-aligned outcomes.
	fresh := []int64{1, 2, 4, 5, 8, 10}
	res = w.wait(ex.MultiInsert(fresh))
	for i, r := range res.Results {
		if r.Err != nil || !r.OK {
			t.Fatalf("insert %d: ok=%v err=%v", fresh[i], r.OK, r.Err)
		}
	}
	res = w.wait(ex.MultiDelete(fresh))
	for i, r := range res.Results {
		if r.Err != nil || !r.OK {
			t.Fatalf("delete %d: ok=%v err=%v", fresh[i], r.OK, r.Err)
		}
	}
	res = w.wait(ex.MultiDelete(fresh))
	for i, r := range res.Results {
		if r.Err != nil || r.OK {
			t.Fatalf("re-delete %d: ok=%v err=%v, want miss", fresh[i], r.OK, r.Err)
		}
	}
}

// waiter lets call sites write w.wait(ex.MultiGet(...)) — a method call
// accepts a multi-value inner call where a plain function with a leading
// *testing.T parameter would not.
type waiter struct{ t *testing.T }

func (w waiter) wait(h *exec.Handle, err error) *exec.Result {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
	return h.Wait()
}

// TestAsyncCompletion checks the handle/callback contract: submission
// does not block on completion, a window of requests completes in any
// order, and the callback fires exactly once before Done closes.
func TestAsyncCompletion(t *testing.T) {
	w := waiter{t}
	st, _, _ := newGatedStore(t, 4, 2, 512)
	ex, err := exec.New(st, exec.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	var fired atomic.Int32
	h, err := ex.SubmitCallback(
		workload.Req{Kind: workload.ReqMultiInsert, Keys: []int64{1, 2, 3}},
		func(r *exec.Result) {
			if r == nil || len(r.Results) != 3 {
				t.Error("callback saw a malformed result")
			}
			fired.Add(1)
		})
	if err != nil {
		t.Fatal(err)
	}
	<-h.Done()
	if fired.Load() != 1 {
		t.Fatalf("callback fired %d times", fired.Load())
	}
	if r, ok := h.Result(); !ok || r == nil {
		t.Fatal("Result() not available after Done")
	}

	// A pipelined window: 64 requests in flight, all complete.
	const window = 64
	handles := make([]*exec.Handle, window)
	for i := range handles {
		handles[i], err = ex.MultiGet([]int64{int64(i), int64(i + 100), int64(i + 300)})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handles {
		res := h.Wait()
		if res.Partial() || len(res.Results) != 3 {
			t.Fatalf("window handle %d: partial=%v results=%d", i, res.Partial(), len(res.Results))
		}
		if res.Elapsed <= 0 {
			t.Fatalf("window handle %d: zero elapsed", i)
		}
	}

	// The empty scatter completes immediately.
	res := w.wait(ex.MultiGet(nil))
	if res.Partial() || len(res.Results) != 0 {
		t.Fatalf("empty multiget: %+v", res)
	}

	st2 := ex.Stats()
	if st2.Completed != st2.Requests || st2.Requests < window+2 {
		t.Fatalf("stats: completed %d of %d requests", st2.Completed, st2.Requests)
	}
}

// TestShedAndQueueAccounting drives the admission machinery
// deterministically: a chaos-parked worker wedges the shard's depth-1
// request queue, so the lone pump holds one leg in a hand-off retry (no
// leg budget), two more legs fill the bounded exec queue under healthy
// backpressure, the shard is then degraded, and the next submissions
// shed with the typed error — counted, recorded, and visible in the
// partial results — while the queued legs survive to complete after
// heal.
func TestShedAndQueueAccounting(t *testing.T) {
	w := waiter{t}
	const keyRange = 256
	st, gates, recorder := newGatedStoreDepth(t, 2, 1, keyRange, 1)
	ex, err := exec.New(st, exec.Config{
		QueueDepth:          2,
		DispatchersPerShard: 1,
		LegTimeout:          -1, // no budget: the pump retries hand-off indefinitely
		Recorder:            recorder,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	target := &chaos.Target{Store: st, Gates: gates, KeyRange: keyRange}
	fault, err := chaos.New("stall", chaos.Params{Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	heal, err := fault.Inject(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	healed := false
	defer func() {
		if !healed {
			heal()
		}
	}()

	keys := keysOnShard(t, st, 0, keyRange, 5)
	awaitParked(t, st, keys[0])

	// Wedge the shard's depth-1 request queue deterministically: the
	// parked worker may or may not have left the buffer occupied (the
	// parking op could have been any probe), so fill it through the async
	// path until the store reports refusal.
	for {
		accepted, err := st.DoShardAsync(0,
			[]store.Op{{Kind: workload.OpContains, Key: keys[0]}},
			make([]store.Result, 1), nil, func() {})
		if err != nil {
			t.Fatal(err)
		}
		if !accepted {
			break
		}
	}

	// Leg A: pulled by the lone pump, which retries hand-off against the
	// wedged shard queue.
	hA, err := ex.MultiGet(keys[:1])
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pump to pull the first leg", func() bool {
		s := ex.Stats().Shards[0]
		return s.Legs == 1 && s.Queued == 0
	})

	// Legs B, C: fill the healthy queue (room exists, sends don't block).
	hB, err := ex.MultiGet(keys[1:2])
	if err != nil {
		t.Fatal(err)
	}
	hC, err := ex.MultiGet(keys[2:3])
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "queue to hold two legs", func() bool {
		return ex.Stats().Shards[0].Queued == 2
	})

	// Degrade: the full queue now sheds instead of blocking.
	ex.SetDegraded(0, true)
	if !ex.Degraded(0) {
		t.Fatal("SetDegraded did not stick")
	}
	for i := 3; i < 5; i++ {
		res := w.wait(ex.MultiGet(keys[i : i+1])) // completes immediately: shed
		if !res.Partial() || len(res.ShardErrs) != 1 {
			t.Fatalf("shed request %d not partial: %+v", i, res)
		}
		se := res.ShardErrs[0]
		if se.Shard != 0 || !errors.Is(&se, exec.ErrShed) {
			t.Fatalf("shed request %d: shard %d err %v, want shard 0 ErrShed", i, se.Shard, se.Reason)
		}
		if !errors.Is(res.Results[0].Err, exec.ErrShed) {
			t.Fatalf("shed request %d: per-key err %v, want ErrShed", i, res.Results[0].Err)
		}
	}

	stats := ex.Stats()
	sh := stats.Shards[0]
	if sh.Sheds != 2 || sh.Legs != 3 || sh.Timeouts != 0 || sh.Queued != 2 || sh.QueueCap != 2 || !sh.Degraded {
		t.Fatalf("shard 0 ledger: %+v, want 2 sheds / 3 legs / full 2-cap queue", sh)
	}
	if stats.Sheds != 2 || stats.Partial != 2 {
		t.Fatalf("aggregate ledger: sheds=%d partial=%d, want 2/2", stats.Sheds, stats.Partial)
	}
	sheds := 0
	for _, ev := range recorder.Snapshot() {
		if ev.Kind == rec.KindExecShed {
			sheds++
			if ev.Shard != 0 || ev.B != 2 {
				t.Fatalf("shed event misdescribed: %+v", ev)
			}
		}
	}
	if sheds != 2 {
		t.Fatalf("recorder holds %d shed events, want 2", sheds)
	}

	// Heal: the parked worker resumes, A–C complete successfully.
	heal()
	healed = true
	ex.SetDegraded(0, false)
	for i, h := range []*exec.Handle{hA, hB, hC} {
		res := h.Wait()
		if res.Partial() || res.Results[0].Err != nil {
			t.Fatalf("queued leg %d after heal: %+v", i, res)
		}
	}

	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.MultiGet(keys[:1]); !errors.Is(err, exec.ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestPartialResultsUnderChaosStall is the headline failure-semantics
// test: a chaos-stalled shard converts its legs into typed ErrLegStalled
// per-shard errors inside otherwise successful results — point slots on
// the healthy shards stay correct, range merges carry the surviving
// shards' keys — and after heal the same requests run clean (late store
// results from timed-out legs are discarded, never spliced into
// completed handles).
func TestPartialResultsUnderChaosStall(t *testing.T) {
	w := waiter{t}
	const keyRange = 512
	st, gates, recorder := newGatedStore(t, 4, 1, keyRange)
	var want []int64
	for k := int64(0); k < keyRange; k += 2 {
		if _, err := st.Insert(k); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}

	ex, err := exec.New(st, exec.Config{LegTimeout: 75 * time.Millisecond, Recorder: recorder})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	const stalled = 1
	target := &chaos.Target{Store: st, Gates: gates, KeyRange: keyRange}
	engine := chaos.NewEngine(target)
	if err := engine.Add("stall", chaos.Params{Shard: stalled}, chaos.OneShot(0)); err != nil {
		t.Fatal(err)
	}
	engine.Start()
	defer engine.Stop()
	awaitParked(t, st, keysOnShard(t, st, stalled, keyRange, 1)[0])

	// One present key per shard: the stalled shard's slot carries the
	// typed error, every other slot answers correctly.
	var keys []int64
	for s := 0; s < st.Shards(); s++ {
		for _, k := range keysOnShard(t, st, s, keyRange, 8) {
			if k%2 == 0 {
				keys = append(keys, k)
				break
			}
		}
	}
	if len(keys) != st.Shards() {
		t.Fatalf("picked %d probe keys for %d shards", len(keys), st.Shards())
	}
	res := w.wait(ex.MultiGet(keys))
	if !res.Partial() || len(res.ShardErrs) != 1 || res.ShardErrs[0].Shard != stalled {
		t.Fatalf("stalled multiget: partial=%v errs=%+v, want exactly shard %d", res.Partial(), res.ShardErrs, stalled)
	}
	if !errors.Is(&res.ShardErrs[0], exec.ErrLegStalled) {
		t.Fatalf("stalled shard error %v, want ErrLegStalled", res.ShardErrs[0].Reason)
	}
	for i, k := range keys {
		r := res.Results[i]
		if st.ShardFor(k) == stalled {
			if !errors.Is(r.Err, exec.ErrLegStalled) {
				t.Fatalf("stalled slot %d: err=%v, want ErrLegStalled", i, r.Err)
			}
			continue
		}
		if r.Err != nil || !r.OK {
			t.Fatalf("healthy slot %d (key %d): ok=%v err=%v", i, k, r.OK, r.Err)
		}
	}

	// The range merge carries exactly the surviving shards' keys.
	res = w.wait(ex.RangeScan(0, keyRange, 0))
	if !res.Partial() || len(res.ShardErrs) != 1 || res.ShardErrs[0].Shard != stalled {
		t.Fatalf("stalled scan: partial=%v errs=%+v", res.Partial(), res.ShardErrs)
	}
	var surviving []int64
	for _, k := range want {
		if st.ShardFor(k) != stalled {
			surviving = append(surviving, k)
		}
	}
	if len(res.Keys) != len(surviving) {
		t.Fatalf("stalled scan merged %d keys, want the %d on healthy shards", len(res.Keys), len(surviving))
	}
	for i, k := range surviving {
		if res.Keys[i] != k {
			t.Fatalf("stalled scan key %d: got %d want %d", i, res.Keys[i], k)
		}
	}

	stats := ex.Stats()
	if stats.Timeouts < 2 || stats.Partial < 2 {
		t.Fatalf("ledger after stall: timeouts=%d partial=%d, want ≥2 each", stats.Timeouts, stats.Partial)
	}

	// Heal (Stop releases the held one-shot), then the same traffic runs
	// clean end to end.
	engine.Stop()
	waitFor(t, "post-heal multiget to run clean", func() bool {
		res, err := ex.MultiGet(keys)
		if err != nil {
			return false
		}
		return !res.Wait().Partial()
	})
	res = w.wait(ex.RangeScan(0, keyRange, 0))
	if res.Partial() || len(res.Keys) != len(want) {
		t.Fatalf("post-heal scan: partial=%v keys=%d want %d", res.Partial(), len(res.Keys), len(want))
	}

	var scatters, merges int
	for _, ev := range recorder.Snapshot() {
		switch ev.Kind {
		case rec.KindExecScatter:
			scatters++
		case rec.KindExecMerge:
			merges++
		}
	}
	if scatters == 0 || merges == 0 {
		t.Fatalf("recorder: %d scatter / %d merge events, want both present", scatters, merges)
	}
}

// TestVerdictAdmission checks the monitor adapter and its polling loop:
// a domain whose live verdict audits NotRobust degrades its shard, a
// bounded domain does not, and the executor's poller copies the signal
// into the submission path.
func TestVerdictAdmission(t *testing.T) {
	budget := telemetry.Budget{Threads: 2, Threshold: 16}
	m := telemetry.NewMonitor(telemetry.MonitorConfig{Window: 64}, []telemetry.Domain{
		{Scheme: "ebr", Declared: smr.NotRobust, Budget: budget},
		{Scheme: "hp", Declared: smr.Robust, Budget: budget},
	})
	adm := exec.VerdictAdmission{Mon: m}
	if adm.Degraded(0) || adm.Degraded(1) {
		t.Fatal("fresh (inconclusive) monitor must not degrade anything")
	}
	for i := 0; i < 20; i++ {
		el := time.Duration(i) * time.Millisecond
		m.Observe(0, telemetry.Point{Elapsed: el, Ops: uint64(i) * 100, Retired: uint64(i) * 100})
		m.Observe(1, telemetry.Point{Elapsed: el, Ops: uint64(i) * 100, Retired: uint64(4 + i%5)})
	}
	if !adm.Degraded(0) {
		t.Fatal("unbounded-growth domain not degraded")
	}
	if adm.Degraded(1) {
		t.Fatal("bounded domain degraded")
	}
	if adm.Degraded(-1) || adm.Degraded(7) {
		t.Fatal("out-of-range shard degraded")
	}
	if (exec.VerdictAdmission{}).Degraded(0) {
		t.Fatal("nil monitor degraded a shard")
	}

	st, _, _ := newGatedStore(t, 2, 2, 256)
	ex, err := exec.New(st, exec.Config{Admission: adm, AdmitEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	waitFor(t, "admission poller to copy the verdicts", func() bool {
		return ex.Degraded(0) && !ex.Degraded(1)
	})
}

// fixedHedge is a stub hedge policy with a constant delay — every leg
// that outlives it gets a speculative duplicate.
type fixedHedge struct {
	d   time.Duration
	obs atomic.Uint64
}

func (f *fixedHedge) Delay(int) time.Duration    { return f.d }
func (f *fixedHedge) Observe(int, time.Duration) { f.obs.Add(1) }

// TestHedgeLoserDiscardAccounting floods a healthy store with hedges (a
// near-zero fixed delay duplicates almost every leg) and checks the
// wasted-work ledger at quiescence: every launched hedge produced
// exactly one discarded completion — whichever side lost the settle
// race — with no double-merges and no corrupted results. Run under
// -race this doubles as the hedge/primary completion-race test.
func TestHedgeLoserDiscardAccounting(t *testing.T) {
	st, _, _ := newGatedStore(t, 4, 2, 1024)
	for k := int64(0); k < 1024; k += 2 {
		if _, err := st.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	hp := &fixedHedge{d: time.Nanosecond}
	ex, err := exec.New(st, exec.Config{LegTimeout: -1, Hedge: hp})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	const clients, reqs = 8, 200
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.RNG(uint64(c)*7919 + 1)
			for i := 0; i < reqs; i++ {
				keys := make([]int64, 8)
				for j := range keys {
					keys[j] = int64(rng.Next() % 1024)
				}
				h, err := ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys})
				if err != nil {
					errc <- err
					return
				}
				res := h.Wait()
				if res.Partial() {
					errc <- &res.ShardErrs[0]
					return
				}
				for j, r := range res.Results {
					if r.Err != nil {
						errc <- r.Err
						return
					}
					if want := keys[j]%2 == 0; r.OK != want {
						errc <- fmt.Errorf("key %d: got %v, want %v (hedge merged the wrong slot?)", keys[j], r.OK, want)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Wait() unblocks when the winning call merges; the loser's discard
	// still lands on a shard worker afterwards, so give in-flight
	// completions a bounded moment to drain before auditing the ledger.
	s := ex.Stats()
	for deadline := time.Now().Add(2 * time.Second); s.HedgeWaste != s.Hedges && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		s = ex.Stats()
	}
	if s.Hedges == 0 {
		t.Fatal("near-zero hedge delay launched no hedges")
	}
	// At quiescence every hedged leg completed twice: one call settled
	// it, the other was discarded — so waste equals hedges exactly, and
	// hedge wins are a subset.
	if s.HedgeWaste != s.Hedges {
		t.Fatalf("wasted-work ledger off: %d hedges, %d discards", s.Hedges, s.HedgeWaste)
	}
	if s.HedgeWins > s.Hedges {
		t.Fatalf("hedge wins %d exceed hedges %d", s.HedgeWins, s.Hedges)
	}
	if s.LegErrs != 0 || s.Timeouts != 0 {
		t.Fatalf("healthy-store hedging produced leg errors %d / timeouts %d", s.LegErrs, s.Timeouts)
	}
	// Only settling calls feed the policy: one observation per leg, so
	// the count can never exceed legs executed (it would with losers
	// observed too, since almost every leg completes twice here).
	if got, legs := hp.obs.Load(), s.Legs; got > legs {
		t.Fatalf("hedge policy observed %d completions for %d legs: losers leaked into the quantile", got, legs)
	}
}

// TestHedgeSkipsWriteLegs runs inserts and deletes of fresh keys through
// an executor that hedges almost every leg (1 ns delay, two workers per
// shard, so a hedge can run beside its primary). Every answer is then
// determined: an insert of an absent key and a delete of a present one
// both return true. A hedged write leg would apply twice, and the losing
// call's "already present" / "already gone" could win the leg's latch.
func TestHedgeSkipsWriteLegs(t *testing.T) {
	const rounds, width = 2000, 8
	st, _, _ := newGatedStore(t, 4, 2, rounds*width)
	hp := &fixedHedge{d: time.Nanosecond}
	ex, err := exec.New(st, exec.Config{LegTimeout: -1, Hedge: hp})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	wrong, answers := 0, 0
	keys := make([]int64, width)
	for r := 0; r < rounds; r++ {
		for j := range keys {
			keys[j] = int64(r*width + j)
		}
		for _, kind := range []workload.ReqKind{workload.ReqMultiInsert, workload.ReqMultiDelete} {
			h, err := ex.Submit(workload.Req{Kind: kind, Keys: keys})
			if err != nil {
				t.Fatal(err)
			}
			res := h.Wait()
			if res.Partial() {
				t.Fatalf("round %d %v: %v", r, kind, &res.ShardErrs[0])
			}
			for _, x := range res.Results {
				answers++
				if x.Err != nil || !x.OK {
					wrong++
				}
			}
		}
	}
	if answers != 2*rounds*width {
		t.Fatalf("%d answers, want %d", answers, 2*rounds*width)
	}
	if wrong != 0 {
		t.Fatalf("%d of %d write answers wrong: a write leg was hedged and applied twice", wrong, answers)
	}
	if s := ex.Stats(); s.Hedges != 0 {
		t.Fatalf("%d hedges launched for write-only traffic", s.Hedges)
	}
}
