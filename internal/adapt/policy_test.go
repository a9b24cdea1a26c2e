package adapt

import (
	"strings"
	"testing"

	"repro/internal/obs/rec"
	"repro/internal/smr"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// policyRig drives the controller's decision rule tick by tick: a real
// one-shard store, a monitor fed synthetic points, and decide() called
// directly — no ticker, no sampler, no sleep.
type policyRig struct {
	t   *testing.T
	st  *store.Store
	mon *telemetry.Monitor
	c   *Controller
	ops uint64 // the synthetic series' operation counter
}

func newPolicyRig(t *testing.T, slots int) *policyRig {
	t.Helper()
	st, err := store.New(store.Config{
		Shards:   []store.ShardSpec{{Scheme: "ebr", Structure: "michael", Workers: 1, Slots: slots}},
		KeyRange: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	mon := telemetry.NewMonitor(nil, []telemetry.Domain{
		{Scheme: "ebr", Declared: smr.NotRobust, Budget: telemetry.Budget{Threads: 2, Threshold: 16}},
	})
	c, err := New(Config{}, st, mon)
	if err != nil {
		t.Fatal(err)
	}
	c.clock = rec.NewClock() // Start's job; decide() runs without the loop
	return &policyRig{t: t, st: st, mon: mon, c: c}
}

// feed starts a fresh monitor window (its ops counter restarts, which
// resets the window) with a series that audits not-robust (the backlog
// climbs with every operation) or robust (the backlog stays flat).
func (r *policyRig) feed(growing bool) {
	r.ops = 0
	for i := 0; i < 16; i++ {
		r.ops += 100
		retired := uint64(4 + i%5)
		if growing {
			retired = r.ops
		}
		r.mon.Observe(0, telemetry.Point{Ops: r.ops, Retired: retired})
	}
	want := "robust"
	if growing {
		want = "not-robust"
	}
	if got := r.mon.Verdict(0).Audited; got != want {
		r.t.Fatalf("synthetic window audits %s, want %s", got, want)
	}
}

// tick runs n decision ticks and fails if any of them migrated.
func (r *policyRig) tick(n int, why string) {
	r.t.Helper()
	before := len(r.c.Episodes())
	for i := 0; i < n; i++ {
		r.c.decide()
		if eps := r.c.Episodes(); len(eps) != before {
			r.t.Fatalf("%s: tick %d of %d migrated: %+v", why, i+1, n, eps[len(eps)-1])
		}
	}
}

// move runs one tick that must migrate from → to, and returns the episode.
func (r *policyRig) move(from, to string) Episode {
	r.t.Helper()
	before := len(r.c.Episodes())
	r.c.decide()
	eps := r.c.Episodes()
	if len(eps) != before+1 {
		r.t.Fatalf("tick did not migrate %s→%s (episodes %d)", from, to, len(eps))
	}
	ep := eps[len(eps)-1]
	if ep.From != from || ep.To != to || ep.Err != "" {
		r.t.Fatalf("episode = %+v, want %s→%s", ep, from, to)
	}
	if got := r.st.Stats().Shards[0].Scheme; got != to {
		r.t.Fatalf("shard serves %s after the move, want %s", got, to)
	}
	return ep
}

// TestPolicyEscalateCooldownDeescalate walks one shard up and back down
// the ladder: escalation after exactly hysteresis not-robust verdicts,
// nothing during the cooldown even under pressure, and a one-rung
// de-escalation after exactly calm robust verdicts.
func TestPolicyEscalateCooldownDeescalate(t *testing.T) {
	r := newPolicyRig(t, 0)
	r.feed(true)
	r.tick(hysteresis-1, "escalation before hysteresis")
	if ep := r.move("ebr", "ibr"); !strings.HasPrefix(ep.Reason, "escalate: audited not-robust") {
		t.Fatalf("escalation reason = %q", ep.Reason)
	}

	// The fresh incarnation audits not-robust at once, but the cooldown
	// holds the shard still and the pressure streak does not build.
	r.feed(true)
	r.tick(cooldown, "decision during cooldown")
	if p := r.c.state[0].pressure; p != 0 {
		t.Fatalf("pressure built during cooldown: %d", p)
	}

	r.feed(false)
	r.tick(calm-1, "de-escalation before calm")
	if ep := r.move("ibr", "ebr"); !strings.HasPrefix(ep.Reason, "de-escalate: audited robust") {
		t.Fatalf("de-escalation reason = %q", ep.Reason)
	}
}

// TestPolicyOOMEscalatesAtOnce checks that a failed allocation between two
// ticks skips the hysteresis: the heap is already gone.
func TestPolicyOOMEscalatesAtOnce(t *testing.T) {
	r := newPolicyRig(t, 32)
	r.tick(1, "baseline tick")
	for k := int64(0); k < 64; k++ {
		_, _ = r.st.Insert(k) // a 32-slot heap runs out part way
	}
	if r.st.Stats().Shards[0].OOMs == 0 {
		t.Fatal("inserts never exhausted the heap")
	}
	if ep := r.move("ebr", "ibr"); !strings.Contains(ep.Reason, "failed allocations") {
		t.Fatalf("escalation reason = %q, want the OOM branch", ep.Reason)
	}
}

// TestPolicyFlapValve checks that a shard stops migrating once it has
// used its maxMigrations attempts, however long the pressure lasts.
func TestPolicyFlapValve(t *testing.T) {
	r := newPolicyRig(t, 0)
	r.c.state[0].migrations = maxMigrations - 1
	r.feed(true)
	r.tick(hysteresis-1, "escalation before hysteresis")
	r.move("ebr", "ibr")
	r.feed(true)
	r.tick(cooldown+4*hysteresis, "migration past maxMigrations")
	if n := r.st.Stats().Shards[0].Migrations; n != 1 {
		t.Fatalf("store counted %d migrations, want 1", n)
	}
}

// TestDefaultLadder pins the ladder New climbs when none is configured:
// ebr, then ibr, then hp.
func TestDefaultLadder(t *testing.T) {
	var cfg Config
	cfg.fill()
	if got := cfg.Ladder; len(got) != 3 || got[0] != "ebr" || got[1] != "ibr" || got[2] != "hp" {
		t.Fatalf("default ladder = %v", got)
	}
}
