// Package chaos injects faults into the sharded store and keeps them on a
// schedule — the adversity half of the live robustness audit.
//
// The ERA theorem's robustness axis is a worst-case property: Definitions
// 5.1–5.2 quantify over *all* executions, including those where a thread
// stalls at the worst possible moment. Healthy benchmark traffic never
// visits those executions, so a scheme's RobustnessClass cannot be audited
// from healthy telemetry — every scheme looks bounded when nobody stalls.
// This package manufactures the bad executions in production shape: named
// faults, selected through a registry that mirrors internal/workload's
// (a new fault is a registry entry, not harness code), fired by an Engine
// on one-shot, periodic, or ramping schedules against a live store while
// internal/telemetry watches the backlog.
//
// The faults:
//
//   - "stall": parks one shard worker mid-operation at a sched.Breakpoints
//     execution point — the Figure 1 reclamation-critical stall, landing
//     inside a serving store instead of a closed micro-loop;
//   - "slow-client": a drip of single-operation batches, the slow consumer
//     every service eventually meets;
//   - "hotspot": sustained traffic skew onto one shard;
//   - "churn": closes a shard mid-run and reopens it cold (restart
//     semantics — the cache-miss storm included);
//   - "delayed-release": a stall pulse combined with an update storm, so a
//     retire burst lands exactly while protection release is delayed;
//   - "pulse": a stall that sends no probe of its own, so it parks the
//     next client call one worker picks up — one slow call on an
//     otherwise healthy shard.
package chaos

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sched"
	"repro/internal/store"
)

// Target is what faults act on: the store under test, its per-shard
// injection gates, and the key universe traffic-shaped faults draw from.
type Target struct {
	// Store is the service under chaos.
	Store *store.Store
	// Gates holds one Breakpoints instance per shard (the value passed as
	// that shard's ShardSpec.Gate). A nil entry means the shard is not
	// instrumented; stall-family faults refuse to target it.
	Gates []*sched.Breakpoints
	// KeyRange is the key universe [0, KeyRange) used to synthesize
	// shard-targeted traffic.
	KeyRange int

	mu      sync.Mutex
	keysFor map[int]*shardKeys
}

// shardKeys caches one shard's discovered keys plus the scan cursor, so
// growing the cache resumes where the last scan stopped instead of
// re-collecting (and duplicating) the keys already found.
type shardKeys struct {
	keys []int64
	next int64
}

// Gate returns shard s's breakpoint gate, or an error when the shard is
// not instrumented.
func (t *Target) Gate(s int) (*sched.Breakpoints, error) {
	if s < 0 || s >= len(t.Gates) || t.Gates[s] == nil {
		return nil, fmt.Errorf("chaos: shard %d has no injection gate", s)
	}
	return t.Gates[s], nil
}

// KeysFor returns up to n distinct keys the store routes to shard s,
// scanning the key range incrementally and caching what it finds.
func (t *Target) KeysFor(s, n int) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.keysFor == nil {
		t.keysFor = make(map[int]*shardKeys)
	}
	sk := t.keysFor[s]
	if sk == nil {
		sk = &shardKeys{}
		t.keysFor[s] = sk
	}
	for ; len(sk.keys) < n && sk.next < int64(t.KeyRange); sk.next++ {
		if t.Store.ShardFor(sk.next) == s {
			sk.keys = append(sk.keys, sk.next)
		}
	}
	keys := sk.keys
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}

// Fault is one named failure mode. Inject applies one episode against the
// target and returns a heal function that undoes it; the engine calls
// heal exactly once per successful Inject. intensity starts at 1 and
// grows along ramp schedules; faults scale their magnitude by it.
type Fault interface {
	Name() string
	// Shard reports the fault's target shard (for event labeling).
	Shard() int
	Inject(t *Target, intensity float64) (heal func(), err error)
}

// Factory builds a fault instance aimed at one shard.
type Factory func(shard int) (Fault, error)

var factories = map[string]Factory{
	"stall":           newStall,
	"slow-client":     newSlowClient,
	"hotspot":         newHotspot,
	"churn":           newChurn,
	"delayed-release": newDelayedRelease,
	"pulse":           newPulse,
}

// Names returns every registered fault name, sorted — the listing is
// deterministic so fault sweeps and reports order stably across runs.
func Names() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New builds the named fault, aimed at shard.
func New(name string, shard int) (Fault, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown fault %q (have %v)", name, Names())
	}
	return f(shard)
}

// ParksWorker reports whether the named fault permanently parks one shard
// worker while injected (the stall family). Harnesses size worker pools
// from this: composing k parking faults on one shard needs k+1 workers,
// or the shard freezes entirely and the audit reads a vacuous flat line.
func ParksWorker(name string) bool {
	switch name {
	case "stall", "delayed-release", "pulse":
		return true
	}
	return false
}
