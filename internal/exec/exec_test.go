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
			_, _ = st.Do([]store.Op{{Kind: workload.OpContains, Key: key}})
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

// parkShard stalls shard s's only worker and waits until it is parked.
// The returned heal is idempotent and also runs at cleanup, before the
// cleanups registered earlier (an executor with no leg budget cannot
// close while a pump retries into the parked shard).
func parkShard(t *testing.T, st *store.Store, gates []*sched.Breakpoints, keyRange, s int) func() {
	t.Helper()
	fault, err := chaos.New("stall", s)
	if err != nil {
		t.Fatal(err)
	}
	release, err := fault.Inject(&chaos.Target{Store: st, Gates: gates, KeyRange: keyRange})
	if err != nil {
		t.Fatal(err)
	}
	heal := sync.OnceFunc(release)
	t.Cleanup(heal)
	awaitParked(t, st, keysOnShard(t, st, s, keyRange, 1)[0])
	return heal
}

// wedge fills parked shard s's request queue through the async path until
// the store refuses: the parking op may or may not have left the buffer
// occupied, so filling is the deterministic way to a full queue.
func wedge(t *testing.T, st *store.Store, s int, key int64) {
	t.Helper()
	for {
		accepted, err := st.DoShardAsync(s,
			[]store.Op{{Kind: workload.OpContains, Key: key}},
			make([]store.Result, 1), nil, func() {})
		if err != nil {
			t.Fatal(err)
		}
		if !accepted {
			return
		}
	}
}

// feed pushes n samples into monitor domain d, its ops counter restarting
// from zero (so an earlier window resets): a backlog growing with every
// operation audits NotRobust, one hovering at a few nodes does not.
func feed(m *telemetry.Monitor, d int, growing bool, n int) {
	for i := 0; i < n; i++ {
		p := telemetry.Point{Elapsed: time.Duration(i) * time.Millisecond, Ops: uint64(i) * 100, Retired: uint64(4 + i%5)}
		if growing {
			p.Retired = uint64(i) * 100
		}
		m.Observe(d, p)
	}
}

// newMonitor builds a monitor with one domain per shard.
func newMonitor(shards int) *telemetry.Monitor {
	domains := make([]telemetry.Domain, shards)
	for i := range domains {
		domains[i] = telemetry.Domain{Scheme: "ebr", Declared: smr.NotRobust, Budget: telemetry.Budget{Threads: 2, Threshold: 16}}
	}
	return telemetry.NewMonitor(nil, domains)
}

// TestScatterGroupsByShard checks Submit's partition through the scatter
// event it stamps on the flight recorder: a multi-key request fans out
// one leg per touched shard and carries every key, a range touches every
// shard, an empty interval scatters nothing, and an unknown kind is
// refused.
func TestScatterGroupsByShard(t *testing.T) {
	w := waiter{t}
	st, _, recorder := newGatedStore(t, 4, 2, 256)
	ex, err := exec.New(st, exec.Config{Recorder: recorder})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()

	keys := []int64{0, 1, 2, 3, 100, 101, 102, 200}
	w.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys}))
	touched := map[int]bool{}
	for _, k := range keys {
		touched[st.ShardFor(k)] = true
	}
	for s, sh := range ex.Stats().Shards {
		want := uint64(0)
		if touched[s] {
			want = 1
		}
		if sh.Legs != want {
			t.Fatalf("shard %d ran %d legs, want %d", s, sh.Legs, want)
		}
	}
	w.wait(ex.Submit(workload.Req{Kind: workload.ReqRangeScan, Lo: 10, Hi: 20}))
	// Inverted intervals compile to the empty scatter.
	w.wait(ex.Submit(workload.Req{Kind: workload.ReqRangeCount, Lo: 20, Hi: 10}))
	if _, err := ex.Submit(workload.Req{Kind: workload.ReqKind(99)}); err == nil {
		t.Fatal("unknown request kind submitted")
	}

	var scatters []rec.Event
	for _, ev := range recorder.Snapshot() {
		if ev.Kind == rec.KindExecScatter {
			scatters = append(scatters, ev)
		}
	}
	want := []struct {
		kind      workload.ReqKind
		legs, ops uint64
	}{
		{workload.ReqMultiGet, uint64(len(touched)), uint64(len(keys))},
		{workload.ReqRangeScan, uint64(st.Shards()), 0},
		{workload.ReqRangeCount, 0, 0},
	}
	if len(scatters) != len(want) {
		t.Fatalf("recorder holds %d scatter events, want %d: %+v", len(scatters), len(want), scatters)
	}
	for i, ev := range scatters {
		if ev.Label != want[i].kind.String() || ev.A != want[i].legs || ev.B != want[i].ops {
			t.Fatalf("scatter %d: %s with %d legs / %d ops, want %s with %d / %d",
				i, ev.Label, ev.A, ev.B, want[i].kind, want[i].legs, want[i].ops)
		}
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
			h, err := ex.Submit(workload.Req{Kind: workload.ReqRangeScan, Lo: 100, Hi: 700})
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
	res := w.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys}))
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
	res = w.wait(ex.Submit(workload.Req{Kind: workload.ReqRangeScan, Lo: 100, Hi: 700, Keys: []int64{5}}))
	if len(res.Keys) != 5 || res.Count != 5 {
		t.Fatalf("limited scan: %d keys count %d, want 5", len(res.Keys), res.Count)
	}
	for j := 0; j < 5; j++ {
		if res.Keys[j] != want[j] {
			t.Fatalf("limited scan key %d: got %d want %d", j, res.Keys[j], want[j])
		}
	}

	res = w.wait(ex.Submit(workload.Req{Kind: workload.ReqRangeCount, Lo: 100, Hi: 700}))
	if res.Count != uint64(len(want)) || res.Keys != nil {
		t.Fatalf("range count = %d (keys %v), want %d", res.Count, res.Keys, len(want))
	}

	// Write fan-out round trip with position-aligned outcomes.
	fresh := []int64{1, 2, 4, 5, 8, 10}
	res = w.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiInsert, Keys: fresh}))
	for i, r := range res.Results {
		if r.Err != nil || !r.OK {
			t.Fatalf("insert %d: ok=%v err=%v", fresh[i], r.OK, r.Err)
		}
	}
	res = w.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiDelete, Keys: fresh}))
	for i, r := range res.Results {
		if r.Err != nil || !r.OK {
			t.Fatalf("delete %d: ok=%v err=%v", fresh[i], r.OK, r.Err)
		}
	}
	res = w.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiDelete, Keys: fresh}))
	for i, r := range res.Results {
		if r.Err != nil || r.OK {
			t.Fatalf("re-delete %d: ok=%v err=%v, want miss", fresh[i], r.OK, r.Err)
		}
	}
}

// waiter lets call sites write w.wait(ex.Submit(...)) — a method call
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
	if r := h.Wait(); r == nil {
		t.Fatal("no result after Done")
	}

	// A pipelined window: 64 requests in flight, all complete.
	const window = 64
	handles := make([]*exec.Handle, window)
	for i := range handles {
		handles[i], err = ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: []int64{int64(i), int64(i + 100), int64(i + 300)}})
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
	res := w.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiGet}))
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

	heal := parkShard(t, st, gates, keyRange, 0)
	keys := keysOnShard(t, st, 0, keyRange, 5)
	wedge(t, st, 0, keys[0])

	// Leg A: pulled by the lone pump, which retries hand-off against the
	// wedged shard queue.
	hA, err := ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys[:1]})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pump to pull the first leg", func() bool {
		s := ex.Stats().Shards[0]
		return s.Legs == 1 && s.Queued == 0
	})

	// Legs B, C: fill the healthy queue (room exists, sends don't block).
	hB, err := ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys[1:2]})
	if err != nil {
		t.Fatal(err)
	}
	hC, err := ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys[2:3]})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "queue to hold two legs", func() bool {
		return ex.Stats().Shards[0].Queued == 2
	})

	// Degrade: the full queue now sheds instead of blocking.
	ex.Transition(0, exec.Healthy, exec.Degraded, "test")
	if h := ex.Health(0); h != exec.Degraded {
		t.Fatalf("Transition left the shard %v", h)
	}
	for i := 3; i < 5; i++ {
		res := w.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys[i : i+1]})) // completes immediately: shed
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
	if sh.Sheds != 2 || sh.Legs != 3 || sh.Timeouts != 0 || sh.Queued != 2 || sh.QueueCap != 2 || sh.Health != exec.Degraded {
		t.Fatalf("shard 0 ledger: %+v, want 2 sheds / 3 legs / full 2-cap queue", sh)
	}
	if stats.Sheds != 2 || stats.Partial != 2 {
		t.Fatalf("aggregate ledger: sheds=%d partial=%d, want 2/2", stats.Sheds, stats.Partial)
	}
	sheds := 0
	for _, ev := range recorder.Snapshot() {
		if ev.Kind == rec.KindExecShed {
			sheds++
			if ev.Shard != 0 || ev.A != 2 || ev.B != uint64(exec.Degraded) {
				t.Fatalf("shed event misdescribed: %+v", ev)
			}
		}
	}
	if sheds != 2 {
		t.Fatalf("recorder holds %d shed events, want 2", sheds)
	}

	// Heal: the parked worker resumes, A–C complete successfully.
	heal()
	ex.Transition(0, exec.Degraded, exec.Healthy, "test")
	for i, h := range []*exec.Handle{hA, hB, hC} {
		res := h.Wait()
		if res.Partial() || res.Results[0].Err != nil {
			t.Fatalf("queued leg %d after heal: %+v", i, res)
		}
	}

	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys[:1]}); !errors.Is(err, exec.ErrClosed) {
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
	if err := engine.Add("stall", stalled, chaos.OneShot(0)); err != nil {
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
	res := w.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys}))
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
	res = w.wait(ex.Submit(workload.Req{Kind: workload.ReqRangeScan, Lo: 0, Hi: keyRange}))
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
		res, err := ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys})
		if err != nil {
			return false
		}
		return !res.Wait().Partial()
	})
	res = w.wait(ex.Submit(workload.Req{Kind: workload.ReqRangeScan, Lo: 0, Hi: keyRange}))
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

// TestVerdictAdmission checks the monitor's path into admission with no
// poller in between: the sample that concludes a domain NotRobust
// degrades its shard, a bounded domain stays healthy, and the shard is
// healthy again once its verdict clears or its domain is rebound.
func TestVerdictAdmission(t *testing.T) {
	m := newMonitor(2)
	st, _, _ := newGatedStore(t, 2, 2, 256)
	ex, err := exec.New(st, exec.Config{Verdicts: m})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if ex.Health(0) != exec.Healthy || ex.Health(1) != exec.Healthy {
		t.Fatal("fresh (inconclusive) monitor degraded a shard")
	}
	feed(m, 0, true, 20)
	feed(m, 1, false, 20)
	if h := ex.Health(0); h != exec.Degraded {
		t.Fatalf("unbounded-growth shard is %v, want degraded", h)
	}
	if h := ex.Health(1); h != exec.Healthy {
		t.Fatalf("bounded shard is %v, want healthy", h)
	}
	if ex.Health(-1) != exec.Healthy || ex.Health(7) != exec.Healthy {
		t.Fatal("out-of-range shard not healthy")
	}
	feed(m, 0, false, 20)
	if h := ex.Health(0); h != exec.Healthy {
		t.Fatalf("shard is %v after its verdict cleared, want healthy", h)
	}
	feed(m, 1, true, 20)
	m.SetDomain(1, "hp", smr.Robust)
	if h := ex.Health(1); h != exec.Healthy {
		t.Fatalf("rebound shard is %v, want healthy", h)
	}
}

// TestShardHealth drives each input of a shard's health — the monitor's
// verdict, a manual transition, the breaker's transition API and the
// stalled-call bound — against a parked shard, and checks what admission
// makes of the state: healthy blocks on a full leg queue and hedges;
// degraded, open and probing queue while there is room, shed on overflow
// and hedge nothing; parked sheds with the queue empty. Every shed and
// every move of the health word lands on the recorder naming the state.
func TestShardHealth(t *testing.T) {
	const keyRange = 256
	trip := func(t *testing.T, ex *exec.Executor, moves ...exec.Health) {
		for i := 1; i < len(moves); i++ {
			if !ex.Transition(0, moves[i-1], moves[i], "breaker") {
				t.Fatalf("transition %v→%v refused", moves[i-1], moves[i])
			}
		}
		if ex.Transition(0, exec.Healthy, exec.Open, "stale") {
			t.Fatal("transition from a state the word no longer holds")
		}
	}
	cases := []struct {
		name  string
		drive func(t *testing.T, ex *exec.Executor, m *telemetry.Monitor, key int64)
		want  exec.Health
		// reason is the KindHealth label drive stamps ("" = none).
		reason string
	}{
		{"none", func(*testing.T, *exec.Executor, *telemetry.Monitor, int64) {}, exec.Healthy, ""},
		{"verdict", func(_ *testing.T, _ *exec.Executor, m *telemetry.Monitor, _ int64) {
			feed(m, 0, true, 20)
		}, exec.Degraded, ""},
		{"manual", func(_ *testing.T, ex *exec.Executor, _ *telemetry.Monitor, _ int64) {
			ex.Transition(0, exec.Healthy, exec.Degraded, "manual")
		}, exec.Degraded, "manual"},
		{"breaker-open", func(t *testing.T, ex *exec.Executor, _ *telemetry.Monitor, _ int64) {
			trip(t, ex, exec.Healthy, exec.Open)
		}, exec.Open, "breaker"},
		{"breaker-probing", func(t *testing.T, ex *exec.Executor, _ *telemetry.Monitor, _ int64) {
			trip(t, ex, exec.Healthy, exec.Open, exec.Probing)
		}, exec.Probing, "breaker"},
		{"stalled-bound", func(t *testing.T, ex *exec.Executor, _ *telemetry.Monitor, key int64) {
			// Each leg (and its hedge) is accepted by the parked shard and
			// outlives the budget: its calls pile onto the stalled gauge.
			for i := 0; ex.Health(0) != exec.Parked; i++ {
				if i == 16 {
					t.Fatalf("shard not parked after %d stalled legs: %+v", i, ex.Stats().Shards[0])
				}
				res := waiter{t}.wait(ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: []int64{key}}))
				if len(res.ShardErrs) != 1 || !errors.Is(&res.ShardErrs[0], exec.ErrLegStalled) || res.ShardErrs[0].NotExecuted {
					t.Fatalf("leg into the parked shard: %+v, want a stalled leg that ran", res.ShardErrs)
				}
			}
		}, exec.Parked, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, gates, recorder := newGatedStore(t, 2, 1, keyRange)
			cfg := exec.Config{
				QueueDepth: 1, DispatchersPerShard: 1, LegTimeout: -1,
				Verdicts: newMonitor(2), Hedge: &fixedHedge{d: time.Nanosecond}, Recorder: recorder,
			}
			if tc.want == exec.Parked {
				cfg.LegTimeout = 5 * time.Millisecond
			}
			ex, err := exec.New(st, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ex.Close() })
			heal := parkShard(t, st, gates, keyRange, 0)
			keys := keysOnShard(t, st, 0, keyRange, 5)

			tc.drive(t, ex, cfg.Verdicts, keys[0])
			if h := ex.Health(0); h != tc.want {
				t.Fatalf("shard is %v, want %v", h, tc.want)
			}
			var handles []*exec.Handle
			submit := func(k int64) *exec.Handle {
				h, err := ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: []int64{k}})
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
				return h
			}
			if tc.want == exec.Parked {
				if q := ex.Stats().Shards[0].Queued; q != 0 {
					t.Fatalf("%d legs queued", q)
				}
				expectShed(t, submit(keys[1]))
			} else {
				// Hedge: the leg's call sits in the parked shard's request
				// queue, so a hedge finds room there — and only a healthy
				// shard may take it.
				submit(keys[1])
				waitFor(t, "the leg to leave the queue", func() bool { return ex.Stats().Shards[0].Queued == 0 })
				if tc.want == exec.Healthy {
					waitFor(t, "a hedge on the healthy shard", func() bool { return ex.Stats().Hedges == 1 })
				} else {
					time.Sleep(20 * time.Millisecond)
					if n := ex.Stats().Hedges; n != 0 {
						t.Fatalf("%d hedges launched against a %v shard", n, tc.want)
					}
				}
				// Admission: a pump holds leg A in a hand-off retry against
				// the wedged shard, B takes the queue's one slot, and C finds
				// it full.
				wedge(t, st, 0, keys[0])
				submit(keys[2])
				waitFor(t, "the pump to pull leg A", func() bool {
					s := ex.Stats().Shards[0]
					return s.Legs == 2 && s.Queued == 0
				})
				submit(keys[3])
				if tc.want == exec.Healthy {
					blocked := make(chan *exec.Handle, 1)
					go func() {
						h, err := ex.Submit(workload.Req{Kind: workload.ReqMultiGet, Keys: keys[4:5]})
						if err != nil {
							t.Error(err)
						}
						blocked <- h
					}()
					select {
					case <-blocked:
						t.Fatal("healthy shard returned instead of blocking on a full queue")
					case <-time.After(20 * time.Millisecond):
					}
					heal()
					if h := <-blocked; h != nil {
						handles = append(handles, h)
					}
				} else {
					expectShed(t, submit(keys[4]))
				}
			}
			heal()
			for i, h := range handles {
				if res := h.Wait(); res.Partial() != errors.Is(res.Results[0].Err, exec.ErrShed) {
					t.Fatalf("leg %d after heal: %+v", i, res.ShardErrs)
				}
			}

			var sheds, moves []rec.Event
			for _, ev := range recorder.Snapshot() {
				switch ev.Kind {
				case rec.KindExecShed:
					sheds = append(sheds, ev)
				case rec.KindHealth:
					moves = append(moves, ev)
				}
			}
			if wantSheds := min(int(tc.want), 1); len(sheds) != wantSheds {
				t.Fatalf("%d shed events, want %d", len(sheds), wantSheds)
			}
			for _, ev := range sheds {
				if ev.Shard != 0 || ev.B != uint64(tc.want) {
					t.Fatalf("shed event %+v does not name %v", ev, tc.want)
				}
			}
			if tc.reason == "" {
				if len(moves) != 0 {
					t.Fatalf("unexpected health moves: %+v", moves)
				}
			} else if len(moves) == 0 || moves[len(moves)-1].Label != tc.reason || moves[len(moves)-1].A != uint64(tc.want) {
				t.Fatalf("health moves %+v, want the last %q into %v", moves, tc.reason, tc.want)
			}
		})
	}
}

// expectShed checks that h completed at submission with the typed shed:
// a partial result whose one shard error never ran.
func expectShed(t *testing.T, h *exec.Handle) {
	t.Helper()
	select {
	case <-h.Done():
	default:
		t.Fatal("leg was not shed at submission")
	}
	res := h.Wait()
	if len(res.ShardErrs) != 1 || !errors.Is(&res.ShardErrs[0], exec.ErrShed) || !res.ShardErrs[0].NotExecuted {
		t.Fatalf("shed leg: %+v, want one not-executed ErrShed", res.ShardErrs)
	}
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
