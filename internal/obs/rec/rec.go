// Package rec is the flight-recorder core of the observability plane:
// a shared run clock and a striped, fixed-capacity ring of typed events.
//
// Every subsystem that emits history — SMR scan batches, traversal guard
// trips, store migrations, chaos fault fire/heal, adaptive ladder moves,
// telemetry verdict flips — stamps its events on ONE Clock
// and appends them to ONE Recorder, so the streams merge into a single
// ordered timeline without per-subsystem zero-point skew. The package is
// deliberately dependency-free: the producers (internal/smr, internal/ds,
// internal/store, internal/chaos, internal/adapt, internal/telemetry) can
// all import it without cycles; the consumers (internal/obs, internal/bench)
// join and export what it captured.
//
// The recorder is built to be left on in the hot path: appends take one
// striped mutex, never allocate after construction, and never block on
// readers. When a stripe's ring wraps, the oldest event in that stripe is
// overwritten and an exact per-stripe drop counter advances — overflow is
// visible, not silent.
package rec

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Clock is the shared run clock: one t=0 for every event stream in a run.
// A nil *Clock is usable and reads zero — components hold one
// unconditionally and only wire a real origin when observability is on.
type Clock struct {
	t0 time.Time
}

// NewClock starts a run clock at the current instant.
func NewClock() *Clock { return &Clock{t0: time.Now()} }

// ClockAt builds a run clock with an explicit origin (replay/tests).
func ClockAt(t0 time.Time) *Clock { return &Clock{t0: t0} }

// Now returns the elapsed run time. Zero on a nil clock.
func (c *Clock) Now() time.Duration {
	if c == nil || c.t0.IsZero() {
		return 0
	}
	return time.Since(c.t0)
}

// Origin returns the wall-clock instant of t=0 (zero time on nil).
func (c *Clock) Origin() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.t0
}

// Kind is the typed event tag. It marshals to and from its string name in
// JSON, so recorded timelines round-trip through the artifact files.
type Kind uint8

const (
	// KindMark is a free-form annotation (harness phase boundaries etc.).
	KindMark Kind = iota
	// KindSMRScan is one reclamation scan: A = retired nodes examined,
	// B = nodes reclaimed. A is not the retire-list length: the epoch
	// schemes stop at the first node too young to free, so A <= B+1.
	KindSMRScan
	// KindGuardTrip is one traversal aborted at its step budget:
	// A = steps walked, B = restarts taken, Label = "structure.op".
	KindGuardTrip
	// KindMigrationStart opens a live scheme migration: Label = "from→to".
	KindMigrationStart
	// KindMigrationDone closes a successful migration: A = keys carried,
	// B = swap-window nanoseconds, Label = "from→to".
	KindMigrationDone
	// KindMigrationFail records a failed migration attempt: Label = error.
	KindMigrationFail
	// KindReopen records a shard rebuilt in place on its own scheme.
	KindReopen
	// KindFaultFire records a chaos fault injection: Label = fault name,
	// A = episode index, B = intensity in thousandths.
	KindFaultFire
	// KindFaultHeal records the matching heal: Label = fault name,
	// A = episode index.
	KindFaultHeal
	// KindVerdict records an audited-robustness-class flip from the online
	// classifier: A = new class, B = previous class (smr.RobustnessClass
	// values), Label = "scheme:old→new".
	KindVerdict
	// KindLadderMove records one adaptive-controller migration decision:
	// A = target rung, B = source rung, Label = "from→to: reason".
	KindLadderMove
	// KindSamplerGap records telemetry ticks lost in one sampling window:
	// A = skipped ticks, B = late ticks.
	KindSamplerGap
	// KindExecScatter records one cross-shard request fanned out by the
	// exec layer: A = scatter legs, B = operations carried,
	// Label = request kind ("multiget", "rangescan", ...).
	KindExecScatter
	// KindExecMerge records the matching merge-stage completion:
	// A = merged results/keys, B = scatter→merge latency in nanoseconds,
	// Label = request kind. Shard is -1 (the merge spans shards).
	KindExecMerge
	// KindExecShed records one scatter leg refused by admission control:
	// A = the shard's queued legs at the shed, B = the exec.Health state
	// that refused it (1 degraded, 2 parked, 3 open, 4 probing),
	// Label = request kind.
	KindExecShed
	// KindHedge records one hedge leg launched against a shard whose
	// primary leg outlived the hedge delay: A = the leg's operation count
	// (0 for range legs), B = the hedge delay in nanoseconds,
	// Label = request kind.
	KindHedge
	// KindRetry records one typed-error-gated retry sub-request issued by
	// the resilience layer: A = the retry attempt number (1 = first
	// retry), B = the keys (or shards, for range requests) being retried,
	// Label = request kind.
	KindRetry
	// KindHealth records a move of a shard's exec.Health word: A = new
	// state, B = previous state (0 healthy, 1 degraded, 3 open,
	// 4 probing), Label = the move's reason ("failure ewma 0.83",
	// "probes ok", "manual", ...).
	KindHealth
	// KindBatchWindow records one fused batch window executed by a shard
	// worker: A = operations served under the window's amortized SMR
	// bracket, B = mid-window re-brackets (epoch/slot renewals) the
	// window's K-cadence forced.
	KindBatchWindow
	kindCount
)

var kindNames = [kindCount]string{
	KindMark:           "mark",
	KindSMRScan:        "smr-scan",
	KindGuardTrip:      "guard-trip",
	KindMigrationStart: "migration-start",
	KindMigrationDone:  "migration-done",
	KindMigrationFail:  "migration-fail",
	KindReopen:         "reopen",
	KindFaultFire:      "fault-fire",
	KindFaultHeal:      "fault-heal",
	KindVerdict:        "verdict",
	KindLadderMove:     "ladder-move",
	KindSamplerGap:     "sampler-gap",
	KindExecScatter:    "exec-scatter",
	KindExecMerge:      "exec-merge",
	KindExecShed:       "exec-shed",
	KindHedge:          "hedge",
	KindRetry:          "retry",
	KindHealth:         "health",
	KindBatchWindow:    "batch-window",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON writes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON reads a kind back from its string name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("rec: unknown event kind %q", s)
}

// Event is one recorded occurrence. The A/B payload words are
// kind-specific (documented on each Kind); Label carries the human
// identity (fault name, scheme transition, structure.op).
type Event struct {
	// At is the run-clock stamp.
	At time.Duration `json:"at_ns"`
	// Kind tags the payload interpretation.
	Kind Kind `json:"kind"`
	// Shard is the store shard the event belongs to, or -1 for
	// store-wide/harness events.
	Shard int `json:"shard"`
	// Tid is the emitting thread/worker id where meaningful, else 0.
	Tid int `json:"tid,omitempty"`
	// A and B are the kind-specific payload words.
	A uint64 `json:"a,omitempty"`
	B uint64 `json:"b,omitempty"`
	// Label is the kind-specific human identity.
	Label string `json:"label,omitempty"`
}

// stripes is the fixed stripe count: enough to keep shard-parallel
// producers off each other's locks, small enough that a snapshot merge
// stays cheap.
const stripes = 8

// DefaultCapacity is the per-stripe ring capacity when NewRecorder is
// given a non-positive one.
const DefaultCapacity = 4096

type stripe struct {
	mu    sync.Mutex
	buf   []Event
	head  int    // next write position
	n     int    // valid events (≤ len(buf))
	drops uint64 // events overwritten after wrap — exact
	total uint64 // events ever appended
	_     [24]byte
}

// Recorder is the striped flight recorder. All methods are safe on a nil
// *Recorder (they no-op or return zero values), so producers can hold one
// unconditionally and emit without guards.
type Recorder struct {
	clock *Clock
	s     [stripes]stripe
}

// NewRecorder builds a recorder over clock (nil starts a fresh clock) with
// the given per-stripe ring capacity (<= 0 selects DefaultCapacity).
func NewRecorder(clock *Clock, capacity int) *Recorder {
	if clock == nil {
		clock = NewClock()
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{clock: clock}
	for i := range r.s {
		r.s[i].buf = make([]Event, capacity)
	}
	return r
}

// Clock returns the recorder's run clock (nil on a nil recorder).
func (r *Recorder) Clock() *Clock {
	if r == nil {
		return nil
	}
	return r.clock
}

// stripeFor maps a shard id onto a stripe; store-wide events (shard < 0)
// share stripe 0.
func stripeFor(shard int) int {
	if shard < 0 {
		return 0
	}
	return shard % stripes
}

// Record stamps an event on the run clock and appends it. No-op on nil.
func (r *Recorder) Record(kind Kind, shard, tid int, a, b uint64, label string) {
	if r == nil {
		return
	}
	r.append(Event{At: r.clock.Now(), Kind: kind, Shard: shard, Tid: tid, A: a, B: b, Label: label})
}

// RecordEvent appends a pre-stamped event (replay and tests). No-op on nil.
func (r *Recorder) RecordEvent(ev Event) {
	if r == nil {
		return
	}
	r.append(ev)
}

func (r *Recorder) append(ev Event) {
	st := &r.s[stripeFor(ev.Shard)]
	st.mu.Lock()
	st.buf[st.head] = ev
	st.head = (st.head + 1) % len(st.buf)
	if st.n < len(st.buf) {
		st.n++
	} else {
		st.drops++ // the slot just claimed held the stripe's oldest event
	}
	st.total++
	st.mu.Unlock()
}

// Drops returns the exact number of events overwritten by ring wrap
// across all stripes. Zero on nil.
func (r *Recorder) Drops() uint64 {
	if r == nil {
		return 0
	}
	var d uint64
	for i := range r.s {
		st := &r.s[i]
		st.mu.Lock()
		d += st.drops
		st.mu.Unlock()
	}
	return d
}

// Total returns the number of events ever appended (dropped ones
// included). Zero on nil.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for i := range r.s {
		st := &r.s[i]
		st.mu.Lock()
		t += st.total
		st.mu.Unlock()
	}
	return t
}

// Len returns the number of events currently buffered. Zero on nil.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.s {
		st := &r.s[i]
		st.mu.Lock()
		n += st.n
		st.mu.Unlock()
	}
	return n
}

// Snapshot returns a stamp-ordered copy of every buffered event. Safe to
// call while producers keep appending; each stripe is copied under its
// own lock and the merge sorts by At (stable, so equal stamps keep
// stripe-append order). Nil recorder returns nil.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.s {
		st := &r.s[i]
		st.mu.Lock()
		start := st.head - st.n
		if start < 0 {
			start += len(st.buf)
		}
		for j := 0; j < st.n; j++ {
			out = append(out, st.buf[(start+j)%len(st.buf)])
		}
		st.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
