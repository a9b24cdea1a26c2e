package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs/rec"
	"repro/internal/smr"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func newTestStore(t *testing.T, r *rec.Recorder) *store.Store {
	t.Helper()
	st, err := store.New(store.Config{
		Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: "hashmap", Workers: 2}),
		KeyRange: 256,
		Recorder: r,
	})
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return st
}

// TestMetricsDuringLiveMigration is the acceptance check: /metrics keeps
// rendering every ShardGauges field and a coherent current-scheme label
// while a migration swaps a shard under live traffic. Run with -race.
func TestMetricsDuringLiveMigration(t *testing.T) {
	r := rec.NewRecorder(nil, 0)
	st := newTestStore(t, r)
	defer st.Close()
	reg := &Registry{Store: st, Recorder: r}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			k := seed
			for !stop.Load() {
				k = (k*1103515245 + 12345) % 256
				if k < 0 {
					k = -k
				}
				_, _ = st.Insert(k)
				_, _ = st.Contains(k)
				_, _ = st.Delete(k)
			}
		}(int64(w + 1))
	}

	wg.Add(1)
	migErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		schemes := []string{"ibr", "hp", "ebr"}
		for i, s := range schemes {
			if err := st.MigrateShard(i%2, s); err != nil {
				migErr <- fmt.Errorf("migrate %d -> %s: %w", i%2, s, err)
				return
			}
		}
		migErr <- nil
	}()

	wanted := []string{
		"era_shard_info", "era_shard_ops_total", "era_shard_retired",
		"era_shard_retired_max", "era_shard_active", "era_shard_active_max",
		"era_shard_trav_steps_total", "era_shard_trav_restarts_total",
		"era_shard_guard_trips_total", "era_shard_epoch",
		"era_shard_migrations_total", "era_recorder_events_total",
	}
	deadline := time.After(2 * time.Second)
	rendered := 0
renderLoop:
	for {
		select {
		case err := <-migErr:
			if err != nil {
				t.Fatal(err)
			}
			break renderLoop
		case <-deadline:
			t.Fatal("migrations did not finish in 2s")
		default:
			var buf bytes.Buffer
			if err := reg.WriteMetrics(&buf); err != nil {
				t.Fatalf("WriteMetrics: %v", err)
			}
			out := buf.String()
			for _, w := range wanted {
				if !strings.Contains(out, w) {
					t.Fatalf("metrics output missing %q", w)
				}
			}
			// Exactly one scheme label per shard, even mid-swap.
			for s := 0; s < 2; s++ {
				if n := strings.Count(out, fmt.Sprintf(`era_shard_info{shard="%d"`, s)); n != 1 {
					t.Fatalf("shard %d has %d info rows, want 1\n%s", s, n, out)
				}
			}
			rendered++
		}
	}
	stop.Store(true)
	wg.Wait()
	if rendered == 0 {
		t.Fatal("no metrics renders overlapped the migrations")
	}

	// The recorder saw the swaps.
	var starts, dones int
	for _, ev := range r.Snapshot() {
		switch ev.Kind {
		case rec.KindMigrationStart:
			starts++
		case rec.KindMigrationDone:
			dones++
		}
	}
	if starts != 3 || dones != 3 {
		t.Fatalf("recorded %d starts / %d dones, want 3/3", starts, dones)
	}

	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	// After ibr→hp→ebr round-trips the final schemes are hp (shard 0) and
	// hp? — shard assignment is i%2: 0→ibr, 1→hp, 0→ebr. Check labels.
	out := buf.String()
	if !strings.Contains(out, `shard="0",scheme="ebr"`) {
		t.Fatalf("shard 0 should end on ebr:\n%s", out)
	}
	if !strings.Contains(out, `shard="1",scheme="hp"`) {
		t.Fatalf("shard 1 should end on hp:\n%s", out)
	}
}

func TestBuildTimelineCompleteChain(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []rec.Event{
		{At: ms(10), Kind: rec.KindFaultFire, Shard: 0, A: 1, B: 500, Label: "delayed-release"},
		{At: ms(14), Kind: rec.KindSMRScan, Shard: 0, A: 40, B: 0},
		{At: ms(18), Kind: rec.KindVerdict, Shard: 0, A: 0, B: 2, Label: "ebr:robust→not-robust"},
		{At: ms(20), Kind: rec.KindLadderMove, Shard: 0, A: 1, B: 0, Label: "ebr→ibr: audit"},
		{At: ms(21), Kind: rec.KindMigrationStart, Shard: 0, Label: "ebr→ibr"},
		{At: ms(25), Kind: rec.KindMigrationDone, Shard: 0, A: 120, B: 50_000},
		{At: ms(40), Kind: rec.KindFaultHeal, Shard: 0, A: 1, Label: "delayed-release"},
	}
	series := map[int][]telemetry.Point{
		0: {
			{Elapsed: ms(5), Retired: 10},
			{Elapsed: ms(12), Retired: 12},
			{Elapsed: ms(16), Retired: 60},
		},
	}
	tl := BuildTimeline(events, series, ms(100))
	if len(tl.Incidents) != 1 {
		t.Fatalf("got %d incidents, want 1", len(tl.Incidents))
	}
	in := tl.Incidents[0]
	if !in.Complete || !tl.Complete() {
		t.Fatalf("chain should be complete: %+v", in)
	}
	if in.DetectionLatency != ms(8) {
		t.Fatalf("detection latency = %v, want 8ms", in.DetectionLatency)
	}
	if in.ReactionLatency != ms(3) {
		t.Fatalf("reaction latency = %v, want 3ms", in.ReactionLatency)
	}
	if in.InflectionAt != ms(16) {
		t.Fatalf("inflection = %v, want 16ms", in.InflectionAt)
	}
	if in.HealedAt != ms(40) || in.Migration != "ebr→ibr" {
		t.Fatalf("bad stages: %+v", in)
	}
	if tl.LadderMoves != 1 || tl.Reversals != 0 {
		t.Fatalf("moves=%d reversals=%d, want 1/0", tl.LadderMoves, tl.Reversals)
	}
	if tl.FlapRatePerSec != 10 { // 1 move / 0.1s
		t.Fatalf("flap rate = %v, want 10", tl.FlapRatePerSec)
	}
}

func TestBuildTimelineIncompleteAndReversal(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []rec.Event{
		{At: ms(10), Kind: rec.KindFaultFire, Shard: 1, A: 1, Label: "leaker"},
		{At: ms(15), Kind: rec.KindVerdict, Shard: 1, A: 0, B: 2, Label: "ebr:robust→not-robust"},
		// No migration, no heal: the chain must read incomplete with -1
		// reaction latency.
		{At: ms(20), Kind: rec.KindLadderMove, Shard: 1, A: 1, B: 0, Label: "ebr→ibr: audit"},
		{At: ms(30), Kind: rec.KindLadderMove, Shard: 1, A: 0, B: 1, Label: "ibr→ebr: recovered"},
	}
	tl := BuildTimeline(events, nil, ms(100))
	if len(tl.Incidents) != 1 {
		t.Fatalf("got %d incidents, want 1", len(tl.Incidents))
	}
	in := tl.Incidents[0]
	if in.Complete || tl.Complete() {
		t.Fatal("chain should be incomplete")
	}
	if in.DetectionLatency != ms(5) {
		t.Fatalf("detection latency = %v, want 5ms", in.DetectionLatency)
	}
	if in.ReactionLatency != -1 {
		t.Fatalf("reaction latency = %v, want -1", in.ReactionLatency)
	}
	if tl.LadderMoves != 2 || tl.Reversals != 1 {
		t.Fatalf("moves=%d reversals=%d, want 2/1", tl.LadderMoves, tl.Reversals)
	}
	// Improving verdicts (A > B) must not key detection.
	tl2 := BuildTimeline([]rec.Event{
		{At: ms(10), Kind: rec.KindFaultFire, Shard: 0, A: 1, Label: "x"},
		{At: ms(12), Kind: rec.KindVerdict, Shard: 0, A: 2, B: 0, Label: "improving"},
	}, nil, ms(50))
	if tl2.Incidents[0].VerdictAt != 0 {
		t.Fatal("improving verdict must not count as detection")
	}
}

func TestTimelineEmpty(t *testing.T) {
	tl := BuildTimeline(nil, nil, time.Second)
	if tl.Complete() {
		t.Fatal("empty timeline must not read complete")
	}
}

func TestServerEndpoints(t *testing.T) {
	r := rec.NewRecorder(nil, 0)
	st := newTestStore(t, r)
	defer st.Close()
	_, _ = st.Insert(1)
	r.Record(rec.KindMark, -1, 0, 0, 0, "boot")

	srv, err := Serve("127.0.0.1:0", &Registry{Store: st, Recorder: r})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "era_shard_ops_total") {
		t.Fatalf("/metrics: code=%d body=%.120s", code, body)
	}
	code, body := get("/timeline")
	if code != 200 {
		t.Fatalf("/timeline: code=%d", code)
	}
	var view TimelineView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/timeline not JSON: %v\n%s", err, body)
	}
	found := false
	for _, ev := range view.Events {
		if ev.Kind == rec.KindMark && ev.Label == "boot" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/timeline missing the mark event: %s", body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code=%d body=%.120s", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("/nope: code=%d, want 404", code)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	events := []rec.Event{
		{At: ms(10), Kind: rec.KindFaultFire, Shard: 0, A: 1, B: 500, Label: "stall"},
		{At: ms(12), Kind: rec.KindVerdict, Shard: 0, A: 0, B: 2, Label: "flip"},
		{At: ms(14), Kind: rec.KindMigrationStart, Shard: 0, Label: "ebr→hp"},
		{At: ms(18), Kind: rec.KindMigrationDone, Shard: 0, A: 10, B: 1000},
		{At: ms(30), Kind: rec.KindFaultHeal, Shard: 0, A: 1, Label: "stall"},
		{At: ms(11), Kind: rec.KindSMRScan, Shard: 0, Tid: 1, A: 8, B: 4},
	}
	series := map[int][]telemetry.Point{0: {{Elapsed: ms(9), Retired: 3}}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, series); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var faultDur, migDur float64
	for _, ev := range tf.TraceEvents {
		name, _ := ev["name"].(string)
		switch {
		case strings.HasPrefix(name, "fault:"):
			faultDur, _ = ev["dur"].(float64)
		case strings.HasPrefix(name, "migrate:"):
			migDur, _ = ev["dur"].(float64)
		}
	}
	if faultDur != 20_000 { // 10ms→30ms in µs
		t.Fatalf("fault span dur = %v µs, want 20000", faultDur)
	}
	if migDur != 4000 {
		t.Fatalf("migration span dur = %v µs, want 4000", migDur)
	}
}

func TestVerdictHookRecords(t *testing.T) {
	r := rec.NewRecorder(nil, 0)
	hook := VerdictHook(r)
	hook(3, smr.Robust, smr.NotRobust, telemetry.Verdict{Scheme: "ebr"})
	evs := r.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != rec.KindVerdict || ev.Shard != 3 || ev.A != 0 || ev.B != 2 {
		t.Fatalf("bad verdict event: %+v", ev)
	}
	if !strings.Contains(ev.Label, "ebr:") {
		t.Fatalf("bad label: %q", ev.Label)
	}
}

// TestExecMetricsFamilies checks the execution-layer export: after real
// fan-out traffic (including sheds on a degraded shard), /metrics
// renders the request ledger by kind and the per-shard admission
// picture.
func TestExecMetricsFamilies(t *testing.T) {
	st := newTestStore(t, nil)
	defer st.Close()
	ex, err := exec.New(st, exec.Config{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if h, err := ex.MultiInsert([]int64{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	} else if h.Wait().Partial() {
		t.Fatal("healthy multiinsert partial")
	}
	if h, err := ex.RangeScan(0, 256, 0); err != nil {
		t.Fatal(err)
	} else {
		h.Wait()
	}
	// Shed accounting itself is pinned by the exec package's own tests;
	// here only the health gauge needs to move.
	ex.SetDegraded(0, true)

	var buf bytes.Buffer
	reg := &Registry{Store: st, Exec: ex}
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`era_exec_requests_total{kind="multiinsert"} 1`,
		`era_exec_requests_total{kind="rangescan"} 1`,
		"era_exec_completed_total 2",
		"era_exec_partial_total 0",
		`era_exec_legs_total{shard="0"}`,
		`era_exec_sheds_total{shard="1"} 0`,
		`era_exec_leg_timeouts_total{shard="0"} 0`,
		`era_exec_queue_cap{shard="0"} 1`,
		`era_shard_health{shard="0"} 1`,
		`era_shard_health{shard="1"} 0`,
		`era_exec_stalled_calls{shard="0"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, out)
		}
	}
}
