package chaos

import (
	"sync"
	"time"

	"repro/internal/obs/rec"
)

// Schedule paces a fault's episodes over a run.
type Schedule struct {
	// After is the delay before the first episode.
	After time.Duration `json:"after_ns"`
	// Period is the time between episode starts; 0 makes the fault
	// one-shot.
	Period time.Duration `json:"period_ns"`
	// Episodes caps the number of firings; 0 means once for one-shot
	// schedules and unlimited (until Stop) for periodic ones.
	Episodes int `json:"episodes"`
	// Hold is how long an episode stays injected before it is healed;
	// 0 holds until the engine stops.
	Hold time.Duration `json:"hold_ns"`
	// Ramp grows the intensity across episodes: episode i fires with
	// intensity 1 + Ramp×i. 0 keeps every episode at intensity 1.
	Ramp float64 `json:"ramp"`
}

// OneShot fires once after the delay and holds until the engine stops.
func OneShot(after time.Duration) Schedule {
	return Schedule{After: after}
}

// Periodic fires every period, holding each episode for hold.
func Periodic(after, period, hold time.Duration) Schedule {
	return Schedule{After: after, Period: period, Hold: hold}
}

// Event records one episode for the run report: what fired, where, when,
// and when it was healed.
type Event struct {
	Fault   string `json:"fault"`
	Shard   int    `json:"shard"`
	Episode int    `json:"episode"`
	// At is the injection time relative to Engine.Start.
	At time.Duration `json:"at_ns"`
	// Healed is the heal time relative to Engine.Start; 0 while held.
	Healed time.Duration `json:"healed_ns"`
	// Err records an episode that failed to inject.
	Err string `json:"err,omitempty"`
	// Intensity is the episode's ramped intensity.
	Intensity float64 `json:"intensity"`
}

type injection struct {
	fault Fault
	sched Schedule
}

// Engine drives scheduled fault injections against one target. Add
// injections, Start, run traffic, Stop: Stop heals everything still
// outstanding and waits for the fault goroutines to drain.
type Engine struct {
	target     *Target
	injections []injection

	// clock is the run clock events are stamped on. Engines used to keep
	// a private time.Since zero here; sharing one rec.Clock with the
	// telemetry sampler and the adapt controller is what lets the four
	// logs merge without skew. Start installs a fresh clock when the
	// harness did not provide one.
	clock   *rec.Clock
	rec     *rec.Recorder
	stop    chan struct{}
	wg      sync.WaitGroup
	stopped sync.Once

	mu     sync.Mutex
	events []Event
}

// NewEngine builds an engine over the target.
func NewEngine(t *Target) *Engine {
	return &Engine{target: t, stop: make(chan struct{})}
}

// SetObs points the engine at the shared run clock and, when r is
// non-nil, mirrors every fault fire/heal into the flight recorder. Call
// before Start.
func (e *Engine) SetObs(c *rec.Clock, r *rec.Recorder) {
	e.clock = c
	e.rec = r
}

// now is the event timestamp source: the shared clock when one is
// installed, the engine-private zero otherwise.
func (e *Engine) now() time.Duration { return e.clock.Now() }

// Add registers the named fault (resolved through the registry), aimed
// at shard, on the schedule. Must be called before Start.
func (e *Engine) Add(name string, shard int, s Schedule) error {
	f, err := New(name, shard)
	if err != nil {
		return err
	}
	e.AddFault(f, s)
	return nil
}

// AddFault registers a pre-built fault on the schedule. Must be called
// before Start.
func (e *Engine) AddFault(f Fault, s Schedule) {
	e.injections = append(e.injections, injection{fault: f, sched: s})
}

// Events returns a copy of the episode log, in firing order.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}

// record appends an event and returns its index for later completion.
func (e *Engine) record(ev Event) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.events = append(e.events, ev)
	return len(e.events) - 1
}

func (e *Engine) setHealed(i int) {
	e.mu.Lock()
	ev := e.events[i]
	e.events[i].Healed = e.now()
	e.mu.Unlock()
	e.rec.Record(rec.KindFaultHeal, ev.Shard, 0, uint64(ev.Episode), 0, ev.Fault)
}

func (e *Engine) setErr(i int, err error) {
	e.mu.Lock()
	e.events[i].Err = err.Error()
	e.mu.Unlock()
}

// sleep waits for d or until the engine stops; it reports false on stop.
// A non-positive d returns true immediately.
func (e *Engine) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	select {
	case <-e.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// Start launches one runner per injection. Schedules are relative to
// now; event timestamps read the shared clock when SetObs installed one
// (so they line up with telemetry samples), else a private zero at now.
func (e *Engine) Start() {
	if e.clock == nil {
		e.clock = rec.NewClock()
	}
	for _, inj := range e.injections {
		e.wg.Add(1)
		go e.run(inj)
	}
}

// Stop ends the run: periodic runners cease, held episodes are healed,
// and Stop returns once every runner has drained. Idempotent.
func (e *Engine) Stop() {
	e.stopped.Do(func() { close(e.stop) })
	e.wg.Wait()
}

// run is one injection's lifecycle.
func (e *Engine) run(inj injection) {
	defer e.wg.Done()
	if !e.sleep(inj.sched.After) {
		return
	}
	for ep := 0; ; ep++ {
		if inj.sched.Episodes > 0 && ep >= inj.sched.Episodes {
			return
		}
		if inj.sched.Period <= 0 && ep >= 1 {
			return
		}
		intensity := 1 + inj.sched.Ramp*float64(ep)
		fired := time.Now()
		idx := e.record(Event{
			Fault:     inj.fault.Name(),
			Shard:     inj.fault.Shard(),
			Episode:   ep,
			At:        e.now(),
			Intensity: intensity,
		})
		heal, err := inj.fault.Inject(e.target, intensity)
		if err != nil {
			e.setErr(idx, err)
		} else {
			e.rec.Record(rec.KindFaultFire, inj.fault.Shard(), 0,
				uint64(ep), uint64(intensity*1000), inj.fault.Name())
			if inj.sched.Hold > 0 {
				e.sleep(inj.sched.Hold)
				heal()
				e.setHealed(idx)
			} else {
				// Hold until the engine stops. One-shot holds pin this
				// runner; periodic schedules need a Hold to make sense,
				// so treat hold-until-stop as terminal either way.
				<-e.stop
				heal()
				e.setHealed(idx)
				return
			}
		}
		if inj.sched.Period <= 0 {
			return
		}
		if !e.sleep(inj.sched.Period - time.Since(fired)) {
			return
		}
	}
}
