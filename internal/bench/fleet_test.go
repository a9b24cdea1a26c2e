package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestRunChaosSeparatesClasses is the chaos audit's acceptance shape in
// miniature: a short stall-injection run over the three robustness
// classes must audit EBR as not-robust and HP as robust — the paper's
// prediction, read off live telemetry instead of declared metadata.
func TestRunChaosSeparatesClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run needs a real traffic window")
	}
	dur := 300 * time.Millisecond
	if raceEnabled {
		// The race detector slows the simulator ~10×; give the audit a
		// window with enough work in it to separate the classes.
		dur = 1200 * time.Millisecond
	}
	res, err := RunService(ServiceConfig{
		Schemes:  []string{"ebr", "ibr", "hp"},
		Faults:   []string{"stall"},
		Duration: dur,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	byScheme := map[string]ServiceShardRow{}
	for _, r := range res.Rows {
		byScheme[r.Scheme] = r
	}
	ebr, hp := byScheme["ebr"], byScheme["hp"]
	if ebr.Audited != "not-robust" {
		t.Errorf("ebr audited %q (growth %s, slope %f), want not-robust", ebr.Audited, ebr.Growth, ebr.Slope)
	}
	if hp.Audited != "robust" {
		t.Errorf("hp audited %q (growth %s, plateau %f), want robust", hp.Audited, hp.Growth, hp.Plateau)
	}
	if ebr.Audited == hp.Audited {
		t.Error("audit failed to separate ebr from hp — the whole point")
	}
	for _, r := range res.Rows {
		if !r.Consistent {
			t.Errorf("%s: outcome %s — no scheme should violate its declaration", r.Scheme, r.Outcome)
		}
		if len(r.Series) < 4 {
			t.Errorf("%s: only %d telemetry points", r.Scheme, len(r.Series))
		}
	}
	if len(res.Events) != 3 {
		t.Errorf("events = %d, want one stall per shard", len(res.Events))
	}
	for _, ev := range res.Events {
		if ev.Err != "" {
			t.Errorf("fault %s on shard %d failed: %s", ev.Fault, ev.Shard, ev.Err)
		}
		if ev.Healed == 0 {
			t.Errorf("fault %s on shard %d never healed", ev.Fault, ev.Shard)
		}
	}
	if res.Aggregate.Ops == 0 {
		t.Error("clients made no progress under chaos")
	}
	if err := Check(res); err != nil {
		t.Errorf("Check: %v", err)
	}

	// And the table renders every verdict.
	var tbl strings.Builder
	res.WriteTable(&tbl)
	for _, want := range []string{"ebr", "hp", "unbounded", "bounded", "confirmed"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
}

// TestRunChaosChurnFault exercises the close/reopen fault through the
// full run: op errors are absorbed and the run completes.
func TestRunChaosChurnFault(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run needs a real traffic window")
	}
	res, err := RunService(ServiceConfig{
		Schemes:  []string{"ebr", "hp"},
		Faults:   []string{"churn"},
		Duration: 150 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.OpErrs == 0 {
		t.Error("churn fault produced no ErrShardClosed results — did it fire?")
	}
}

// TestPrefillHalfExact pins the prefill's occupancy: exactly
// ⌊keyRange/2⌋ distinct keys per seed, odd ranges included (a sample
// with replacement would leave about 39 % of the range filled).
func TestPrefillHalfExact(t *testing.T) {
	for _, keyRange := range []int{2048, 1001} {
		for _, seed := range []uint64{1, 42} {
			st, err := store.New(store.Config{
				Shards:   store.Uniform(2, store.ShardSpec{Scheme: "ebr", Structure: "hashmap"}),
				KeyRange: keyRange,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := prefillHalf(st, keyRange, 16, seed); err != nil {
				t.Fatal(err)
			}
			present := 0
			for k := 0; k < keyRange; k++ {
				ok, err := st.Contains(int64(k))
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					present++
				}
			}
			if present != keyRange/2 {
				t.Errorf("keyRange %d seed %d: %d keys present, want %d", keyRange, seed, present, keyRange/2)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
