// Package adapt closes the adaptive-reclamation loop: live robustness
// verdicts in, live scheme migrations out.
//
// The ERA theorem says no reclamation scheme provides ease of
// integration, robustness, and wide applicability at once — so the right
// scheme for a shard is not a deployment constant, it is a function of
// the adversity that shard is actually seeing. The Controller turns the
// impossibility result into a runtime scheduling problem: it consumes
// the online per-shard verdicts (telemetry.Monitor) plus the store's
// striped service stats, and walks each shard along a configurable
// escalation ladder — a cheap, easily-integrated scheme while telemetry
// stays flat, a robust one the moment backlog growth or heap exhaustion
// evidences a live stall, and back down once the evidence says the
// pressure is gone.
//
// The smr.Props ERA sheets are the controller's cost model: the ladder
// must climb in declared robustness (each rung buys a stronger bound,
// typically paying integration ease or applicability for it, which is
// why the default ladder ebr → ibr → hp walks exactly the paper's
// trade-off), and an escalation picks the *cheapest* rung whose declared
// class beats what the current scheme just demonstrated — pay for
// exactly as much robustness as the evidence demands, and not more.
package adapt

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/ds/registry"
	"repro/internal/obs/rec"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Config tunes the controller.
type Config struct {
	// Ladder is the migration ladder, cheapest first; resolved through
	// smr/all, and its declared robustness must be non-decreasing.
	// Empty selects DefaultLadder. Shards serving a scheme not on the
	// ladder are left alone, as are shards whose structure rejects any
	// rung (Appendix E) — the incompatibility is detected at
	// construction, not one failed migration at a time.
	Ladder []string
	// Interval is the decision tick; 0 selects 25ms.
	Interval time.Duration
	// Clock, when non-nil, is the shared run clock episode timestamps
	// are stamped on (the controller used to keep a private time.Since
	// zero, which skewed its log against the sampler's and the chaos
	// engine's). Nil starts a private clock at Start.
	Clock *rec.Clock
	// Recorder, when non-nil, mirrors every ladder move into the flight
	// recorder as it is decided.
	Recorder *rec.Recorder
}

// DefaultLadder is the ladder an empty Config.Ladder selects: one scheme
// per robustness class, not-robust → weakly-robust → robust. Callers must
// not modify it.
var DefaultLadder = []string{"ebr", "ibr", "hp"}

func (cfg *Config) fill() {
	if len(cfg.Ladder) == 0 {
		cfg.Ladder = DefaultLadder
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 25 * time.Millisecond
	}
}

// The controller's policy, in decision ticks.
const (
	// hysteresis is how many consecutive pressure verdicts a shard needs
	// before it escalates — one bad window must not trigger a drain.
	// Heap exhaustion bypasses it: an OOM'd shard has no budget left to
	// be patient with.
	hysteresis = 2
	// calm is how many consecutive robust verdicts a shard needs before
	// it de-escalates one rung. De-escalation is deliberately much slower
	// than escalation: a migration is a drain, and flapping costs more
	// than a rung of robustness.
	calm = 40
	// cooldown is how many ticks a freshly migrated shard is left alone
	// while its new incarnation accumulates evidence.
	cooldown = 4
	// maxMigrations caps migration attempts per shard: the flap valve.
	maxMigrations = 16
)

// Episode records one migration decision for the run report: which
// shard moved where, when, and on what evidence. Failed migrations are
// recorded too (Err non-empty) — a controller that hides its misses is
// not auditable.
type Episode struct {
	Shard int    `json:"shard"`
	From  string `json:"from"`
	To    string `json:"to"`
	// At is the decision time relative to Controller.Start.
	At time.Duration `json:"at_ns"`
	// Audited is the verdict class that drove the decision.
	Audited string `json:"audited"`
	Reason  string `json:"reason"`
	Err     string `json:"err,omitempty"`
}

// shardState is the controller's per-shard decision memory.
type shardState struct {
	pressure int
	calm     int
	cooldown int
	// migrations counts attempts, failed ones included — together with
	// maxMigrations it is the flap valve, and a rung that always fails
	// must not retry (and grow the episode log) forever.
	migrations int
	lastOOMs   uint64
	seenOOMs   bool
	// unmanaged marks a shard whose structure rejects part of the
	// ladder (Appendix E): the controller leaves it alone entirely
	// rather than discovering the incompatibility one failed migration
	// at a time.
	unmanaged bool
}

// Controller is the policy loop. Build with New, Start it alongside the
// sampler feeding its monitor, Stop it before reading the episode log's
// final state.
type Controller struct {
	cfg   Config
	st    *store.Store
	mon   *telemetry.Monitor
	rung  map[string]int // scheme name → ladder index
	props []smr.Props    // per ladder rung
	state []shardState

	clock    *rec.Clock
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	episodes []Episode
}

// New builds a controller over the store and its monitor (monitor domain
// i must describe store shard i — the store.Gauges probe convention).
// The ladder is validated against the smr.Props sheets: every rung must
// resolve, and declared robustness must be non-decreasing along it.
func New(cfg Config, st *store.Store, mon *telemetry.Monitor) (*Controller, error) {
	cfg.fill()
	if len(cfg.Ladder) < 2 {
		return nil, errors.New("adapt: a ladder needs at least two rungs")
	}
	c := &Controller{
		cfg:   cfg,
		st:    st,
		mon:   mon,
		rung:  make(map[string]int, len(cfg.Ladder)),
		props: make([]smr.Props, len(cfg.Ladder)),
		state: make([]shardState, st.Shards()),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i, scheme := range cfg.Ladder {
		p, err := all.Props(scheme)
		if err != nil {
			return nil, fmt.Errorf("adapt: ladder rung %d: %w", i, err)
		}
		if _, dup := c.rung[scheme]; dup {
			return nil, fmt.Errorf("adapt: ladder repeats %s", scheme)
		}
		if i > 0 && p.Robustness < c.props[i-1].Robustness {
			return nil, fmt.Errorf("adapt: ladder must climb in declared robustness, %s (%s) follows %s (%s)",
				scheme, p.Robustness, cfg.Ladder[i-1], c.props[i-1].Robustness)
		}
		c.rung[scheme] = i
		c.props[i] = p
	}
	// A shard whose structure rejects any rung (Appendix E) is marked
	// unmanaged now, so the controller never discovers an
	// incompatibility one failed migration at a time (an always-failing
	// rung would otherwise retry every few ticks for the life of the
	// service).
	for s := 0; s < st.Shards(); s++ {
		spec, err := st.Spec(s)
		if err != nil {
			return nil, err
		}
		info, err := registry.Get(spec.Structure)
		if err != nil {
			return nil, err
		}
		c.state[s].unmanaged = slices.ContainsFunc(c.props, func(p smr.Props) bool {
			return !registry.Applicable(p, info)
		})
	}
	return c, nil
}

// Episodes returns a copy of the migration log, in decision order.
func (c *Controller) Episodes() []Episode {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Episode, len(c.episodes))
	copy(out, c.episodes)
	return out
}

// Start launches the decision loop.
func (c *Controller) Start() {
	if c.clock = c.cfg.Clock; c.clock == nil {
		c.clock = rec.NewClock()
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.decide()
			}
		}
	}()
}

// Stop halts the loop and waits for any in-flight decision (migration
// included) to finish. Idempotent.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		<-c.done
	})
}

// decide runs one tick over every shard.
func (c *Controller) decide() {
	stats := c.st.Stats()
	for s := range stats.Shards {
		if s < len(c.state) {
			c.decideShard(s, stats.Shards[s])
		}
	}
}

// decideShard applies the policy to one shard's verdict and counters.
func (c *Controller) decideShard(s int, ss store.ShardStats) {
	st := &c.state[s]
	// OOM delta since the last tick. A migration swaps in fresh counters,
	// so a regression means "new incarnation", not "negative OOMs".
	var ooms uint64
	if st.seenOOMs && ss.OOMs >= st.lastOOMs {
		ooms = ss.OOMs - st.lastOOMs
	}
	st.lastOOMs, st.seenOOMs = ss.OOMs, true

	if st.unmanaged {
		return
	}
	if st.cooldown > 0 {
		st.cooldown--
		return
	}
	cur, managed := c.rung[ss.Scheme]
	if !managed {
		return
	}
	if st.migrations >= maxMigrations {
		return
	}
	v := c.mon.Verdict(s)
	if v.Inconclusive() && ooms == 0 {
		// No evidence either way; hold position and hold the counters —
		// an idle shard must not decay toward a migration.
		return
	}
	audited := v.AuditedClass()
	pressure := ooms > 0 || audited == smr.NotRobust
	switch {
	case pressure:
		st.calm = 0
		st.pressure++
		if ooms > 0 {
			// The backlog already ate the heap; there is nothing left to
			// wait for.
			st.pressure = hysteresis
		}
		if st.pressure < hysteresis {
			return
		}
		target := c.escalation(cur, audited)
		if target < 0 {
			st.pressure = 0
			return // top of the ladder: nothing stronger to buy
		}
		reason := fmt.Sprintf("escalate: audited %s over %d windows", v.Audited, st.pressure)
		if ooms > 0 {
			reason = fmt.Sprintf("escalate: %d failed allocations (heap exhausted)", ooms)
		}
		c.migrate(s, cur, target, v, reason)
	case audited == smr.Robust && cur > 0:
		st.pressure = 0
		st.calm++
		if st.calm < calm {
			return
		}
		c.migrate(s, cur, cur-1, v,
			fmt.Sprintf("de-escalate: audited robust for %d windows", st.calm))
	default:
		// Tolerated middle ground (a weakly-robust plateau, or robust at
		// the bottom rung): reset both streaks.
		st.pressure, st.calm = 0, 0
	}
}

// escalation picks the cheapest rung above cur whose declared robustness
// beats the class the current scheme just demonstrated — the Props cost
// model. When no rung clears that bar but the ladder continues, the next
// rung up is the fallback (climb anyway; standing still is the one move
// the evidence has ruled out).
func (c *Controller) escalation(cur int, audited smr.RobustnessClass) int {
	for j := cur + 1; j < len(c.props); j++ {
		if c.props[j].Robustness > audited {
			return j
		}
	}
	if cur+1 < len(c.cfg.Ladder) {
		return cur + 1
	}
	return -1
}

// migrate executes one ladder move and records the episode.
func (c *Controller) migrate(s, from, to int, v telemetry.Verdict, reason string) {
	st := &c.state[s]
	ep := Episode{
		Shard:   s,
		From:    c.cfg.Ladder[from],
		To:      c.cfg.Ladder[to],
		At:      c.clock.Now(),
		Audited: v.Audited,
		Reason:  reason,
	}
	c.cfg.Recorder.Record(rec.KindLadderMove, s, 0, uint64(to), uint64(from),
		ep.From+"→"+ep.To+": "+reason)
	// Attempts count either way, and either way the shard cools down:
	// a migration that keeps failing must back off and eventually stop
	// (maxMigrations), not retry on every tick forever.
	st.migrations++
	st.cooldown = cooldown
	if err := c.st.MigrateShard(s, c.cfg.Ladder[to]); err != nil {
		ep.Err = err.Error()
		// A snapshot/rebuild/replay failure leaves the shard closed —
		// the controller triggered it, so the controller restores
		// availability: reopen cold (data lost, like a restart) rather
		// than serve ErrShardClosed for the rest of the service's life.
		// ReopenShard on a still-open shard (validation failures never
		// detach) fails harmlessly.
		if rerr := c.st.ReopenShard(s); rerr == nil {
			ep.Err += " (shard reopened cold)"
		}
	} else {
		c.mon.SetDomain(s, c.cfg.Ladder[to], c.props[to].Robustness)
		// The swapped-in shard restarts its counters.
		st.lastOOMs, st.seenOOMs = 0, false
	}
	st.pressure, st.calm = 0, 0
	c.mu.Lock()
	c.episodes = append(c.episodes, ep)
	c.mu.Unlock()
}
