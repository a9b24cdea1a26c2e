package chaos

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ds"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workload"
)

// newTarget builds a 2-shard gated store for fault tests. Each shard runs
// two workers so a parked worker leaves the shard serving.
func newTarget(t *testing.T, scheme string) *Target {
	t.Helper()
	gates := []*sched.Breakpoints{sched.NewBreakpoints(), sched.NewBreakpoints()}
	specs := make([]store.ShardSpec, 2)
	for i := range specs {
		specs[i] = store.ShardSpec{
			Scheme: scheme, Structure: "michael", Workers: 2, Threshold: 16,
			Slots: 4096, Gate: gates[i],
		}
	}
	st, err := store.New(store.Config{Shards: specs, KeyRange: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &Target{Store: st, Gates: gates, KeyRange: 256}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("fault names not sorted: %v", names)
	}
	if len(names) != 6 {
		t.Fatalf("fault registry has %d entries, want 6: %v", len(names), names)
	}
	for _, n := range names {
		if _, err := New(n, 0); err != nil {
			t.Errorf("New(%q): %v", n, err)
		}
	}
	if _, err := New("nope", 0); err == nil {
		t.Fatal("unknown fault accepted")
	}
}

func TestKeysForRoutesToShard(t *testing.T) {
	tg := newTarget(t, "ebr")
	for s := 0; s < 2; s++ {
		keys := tg.KeysFor(s, 8)
		if len(keys) == 0 {
			t.Fatalf("no keys for shard %d", s)
		}
		for _, k := range keys {
			if tg.Store.ShardFor(k) != s {
				t.Fatalf("key %d routes to %d, not %d", k, tg.Store.ShardFor(k), s)
			}
		}
	}
}

// TestStallFaultGrowsEBRBacklog is the subsystem's core mechanism in
// miniature: a stall on an EBR shard makes churn accumulate retired
// nodes; healing lets the backlog settle.
func TestStallFaultGrowsEBRBacklog(t *testing.T) {
	tg := newTarget(t, "ebr")
	f, err := New("stall", 0)
	if err != nil {
		t.Fatal(err)
	}
	heal, err := f.Inject(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Churn the stalled shard from background clients: the client whose
	// batch lands on the parked worker blocks until heal — exactly what a
	// real stalled server does to its callers — so churn must not run on
	// the test goroutine.
	keys := tg.KeysFor(0, 4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i+c)%len(keys)]
				submit(tg, []store.Op{
					{Kind: workload.OpInsert, Key: k},
					{Kind: workload.OpDelete, Key: k},
				})
			}
		}(c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tg.Store.Gauges()[0].Retired < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	mid := tg.Store.Gauges()[0]
	heal()
	if mid.Retired < 100 {
		close(stop)
		wg.Wait()
		t.Fatalf("stalled EBR shard retains %d, want the churn's worth (≥100)", mid.Retired)
	}
	// After healing, continued churn lets the epoch advance and the
	// backlog collapse back toward the scan threshold's slack.
	deadline = time.Now().Add(5 * time.Second)
	for tg.Store.Gauges()[0].Retired >= mid.Retired/2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	after := tg.Store.Gauges()[0]
	close(stop)
	wg.Wait()
	if after.Retired >= mid.Retired {
		t.Fatalf("backlog did not recede after heal: %d → %d", mid.Retired, after.Retired)
	}
}

// TestStallHealWithoutPark checks the unhappy path: healing a stall whose
// park never happened (no traffic) must not hang or panic.
func TestStallHealWithoutPark(t *testing.T) {
	tg := newTarget(t, "ebr")
	f, _ := New("stall", 1)
	heal, err := f.Inject(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	heal() // immediately, likely before any probe parked
	// The shard still serves afterwards.
	keys := tg.KeysFor(1, 1)
	if ok, err := tg.Store.Insert(keys[0]); err != nil || !ok {
		t.Fatalf("insert after heal: %v, %v", ok, err)
	}
}

func TestChurnFaultCloseReopen(t *testing.T) {
	tg := newTarget(t, "ebr")
	keys := tg.KeysFor(0, 1)
	if ok, err := tg.Store.Insert(keys[0]); err != nil || !ok {
		t.Fatalf("setup insert: %v, %v", ok, err)
	}
	f, _ := New("churn", 0)
	heal, err := f.Inject(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tg.Store.Contains(keys[0]); err == nil {
		t.Fatal("closed shard still serving")
	}
	// Double injection while closed must fail cleanly.
	if _, err := f.Inject(tg, 1); err == nil {
		t.Fatal("closing a closed shard must error")
	}
	heal()
	if ok, err := tg.Store.Contains(keys[0]); err != nil || ok {
		t.Fatalf("reopened shard: contains = %v, %v; want clean miss", ok, err)
	}
}

func TestHotspotSkewsTraffic(t *testing.T) {
	tg := newTarget(t, "ebr")
	f, _ := New("hotspot", 1)
	heal, err := f.Inject(tg, 2) // two blasters
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	heal()
	g := tg.Store.Gauges()
	if g[1].Ops == 0 {
		t.Fatal("hotspot sent no traffic to its shard")
	}
	if g[0].Ops > g[1].Ops/4 {
		t.Fatalf("skew too weak: shard0=%d shard1=%d", g[0].Ops, g[1].Ops)
	}
}

func TestSlowClientDrips(t *testing.T) {
	tg := newTarget(t, "ebr")
	f, _ := New("slow-client", 0)
	heal, err := f.Inject(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	heal()
	if ops := tg.Store.Gauges()[0].Ops; ops == 0 || ops > 100 {
		t.Fatalf("drip sent %d ops; want a slow trickle", ops)
	}
}

func TestDelayedReleaseStorm(t *testing.T) {
	tg := newTarget(t, "ebr")
	f, _ := New("delayed-release", 0)
	heal, err := f.Inject(tg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Give the storm time to land while the park holds.
	deadline := time.Now().Add(2 * time.Second)
	for tg.Store.Gauges()[0].MaxRetired < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	peak := tg.Store.Gauges()[0].MaxRetired
	heal()
	if peak < 50 {
		t.Fatalf("storm under stall peaked at %d retired, want ≥50", peak)
	}
}

// TestEngineSchedules drives a periodic fault and checks the event log
// shape: every episode healed, ramped intensity recorded.
func TestEngineSchedules(t *testing.T) {
	tg := newTarget(t, "ebr")
	e := NewEngine(tg)
	if err := e.Add("slow-client", 0,
		Ramp(0, 10*time.Millisecond, 5*time.Millisecond, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Add("nope", 0, OneShot(0)); err == nil {
		t.Fatal("unknown fault added")
	}
	e.Start()
	time.Sleep(35 * time.Millisecond)
	e.Stop()
	e.Stop() // idempotent
	evs := e.Events()
	if len(evs) < 2 {
		t.Fatalf("periodic fault fired %d times in 35ms with 10ms period", len(evs))
	}
	for i, ev := range evs {
		if ev.Fault != "slow-client" || ev.Shard != 0 {
			t.Fatalf("event %d mislabeled: %+v", i, ev)
		}
		if ev.Err == "" && ev.Healed == 0 {
			t.Fatalf("event %d never healed: %+v", i, ev)
		}
		if want := 1 + float64(i); ev.Intensity != want {
			t.Fatalf("event %d intensity = %f, want %f", i, ev.Intensity, want)
		}
	}
}

// TestEngineStopHealsHeldFault checks that Stop heals a hold-until-stop
// episode (the one-shot stall the audit uses).
func TestEngineStopHealsHeldFault(t *testing.T) {
	tg := newTarget(t, "ebr")
	e := NewEngine(tg)
	if err := e.Add("stall", 0, OneShot(0)); err != nil {
		t.Fatal(err)
	}
	e.Start()
	time.Sleep(5 * time.Millisecond)
	e.Stop()
	evs := e.Events()
	if len(evs) != 1 {
		t.Fatalf("one-shot fired %d times", len(evs))
	}
	if evs[0].Err != "" {
		t.Fatalf("stall failed: %s", evs[0].Err)
	}
	if evs[0].Healed == 0 {
		t.Fatal("Stop did not heal the held stall")
	}
	// The worker is unparked: serving resumes on both workers.
	keys := tg.KeysFor(0, 1)
	if ok, err := tg.Store.Insert(keys[0]); err != nil || !ok {
		t.Fatalf("insert after stop: %v, %v", ok, err)
	}
}

// TestKeysForGrowsWithoutDuplicates: a small lookup followed by a larger
// one must extend the cache, not re-collect the keys already found.
func TestKeysForGrowsWithoutDuplicates(t *testing.T) {
	tg := newTarget(t, "ebr")
	one := tg.KeysFor(0, 1)
	if len(one) != 1 {
		t.Fatalf("KeysFor(0,1) = %v", one)
	}
	many := tg.KeysFor(0, 16)
	seen := map[int64]bool{}
	for _, k := range many {
		if seen[k] {
			t.Fatalf("duplicate key %d in %v", k, many)
		}
		seen[k] = true
		if tg.Store.ShardFor(k) != 0 {
			t.Fatalf("key %d routes off-shard", k)
		}
	}
	if len(many) != 16 {
		t.Fatalf("KeysFor(0,16) found %d keys", len(many))
	}
}

// TestStallFaultsCoexistOnOneShard: two stall-family parks on the same
// shard must claim distinct workers — neither clobbers the other's
// breakpoint — and with both landed the shard's third worker still
// serves. Heals are deferred so a failing assertion cannot leave parked
// workers behind to deadlock the store's cleanup Close.
func TestStallFaultsCoexistOnOneShard(t *testing.T) {
	gate := sched.NewBreakpoints()
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme: "ebr", Structure: "michael", Workers: 3, Threshold: 16,
			Slots: 4096, Gate: gate,
		}},
		KeyRange: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tg := &Target{Store: st, Gates: []*sched.Breakpoints{gate}, KeyRange: 256}

	p1, err := parkWorker(tg, 0, ds.PointSearchHead, true)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.release()
	p2, err := parkWorker(tg, 0, ds.PointSearchHead, true)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.release()
	if p1.tid == p2.tid {
		t.Fatalf("both parks claimed worker %d", p1.tid)
	}
	// The probe pumps alone trigger the parks; wait for both to land
	// before asserting anything about service.
	for _, p := range []*park{p1, p2} {
		select {
		case <-p.stall.Reached():
		case <-time.After(10 * time.Second):
			t.Fatalf("park on worker %d never landed", p.tid)
		}
	}
	// Two of three workers parked: the shard must still serve. Safe to
	// submit synchronously — both breakpoints have fired, so this op
	// cannot become a third victim.
	keys := tg.KeysFor(0, 1)
	if ok, err := st.Insert(keys[0]); err != nil || !ok {
		t.Fatalf("insert with two parked workers: %v, %v", ok, err)
	}
	p1.release()
	p2.release()
	// The heals disarmed cleanly: a fresh park claims a worker again.
	p3, err := parkWorker(tg, 0, ds.PointSearchHead, true)
	if err != nil {
		t.Fatalf("post-heal park refused: %v", err)
	}
	p3.release()
}

// TestPulseParksNextClientCall: the pulse arms a worker but sends no
// probe, so nothing parks until a client call reaches that worker — and
// that call is the one held until heal.
func TestPulseParksNextClientCall(t *testing.T) {
	gate := sched.NewBreakpoints()
	st, err := store.New(store.Config{
		Shards: []store.ShardSpec{{
			Scheme: "ebr", Structure: "michael", Workers: 1, Threshold: 16,
			Slots: 4096, Gate: gate,
		}},
		KeyRange: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tg := &Target{Store: st, Gates: []*sched.Breakpoints{gate}, KeyRange: 256}

	p, err := parkWorker(tg, 0, ds.PointSearchHead, false)
	if err != nil {
		t.Fatal(err)
	}
	defer p.release()
	select {
	case <-p.stall.Reached():
		t.Fatal("pulse parked a worker with no client traffic")
	case <-time.After(20 * time.Millisecond):
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Insert(7)
	}()
	select {
	case <-p.stall.Reached():
	case <-time.After(10 * time.Second):
		t.Fatal("the client call never reached the armed worker")
	}
	select {
	case <-done:
		t.Fatal("the parked client call returned before heal")
	case <-time.After(20 * time.Millisecond):
	}
	p.release()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the parked client call did not return after heal")
	}
}
