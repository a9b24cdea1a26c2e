// Package telemetry turns the repository's counters into time series and
// the time series into robustness verdicts.
//
// The ERA theorem's robustness axis (Definitions 5.1–5.2) bounds the
// retired-but-unreclaimed backlog by a function of max_active; every
// scheme in internal/smr *declares* a RobustnessClass, but a declaration
// is not evidence. This package supplies the evidence side: a low-overhead
// Sampler snapshots per-domain gauges (the retired backlog and its
// watermarks, plus operation progress) on a configurable tick into
// ring-buffered Series, and the growth-fit analysis (fit.go) classifies
// each series — bounded, linear-in-threads, or unbounded — and compares
// the audited class against the declared one. The chaos engine
// (internal/chaos) supplies the adversity the classification needs: under
// healthy traffic every scheme looks bounded; only under a
// reclamation-critical stall do the classes separate.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/rec"
)

// Point is one sampled observation of a monitored domain (typically one
// store shard: its arena gauges plus its service-progress counter).
type Point struct {
	// Elapsed is the time since the sampler started.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Ops is the cumulative operation count of the domain — the x-axis of
	// the growth fit (backlog growth per *operation*, not per second,
	// is what the definitions bound).
	Ops uint64 `json:"ops"`
	// Retired is the current retired-but-unreclaimed backlog, the
	// quantity Definitions 5.1–5.2 bound.
	Retired uint64 `json:"retired"`
	// MaxRetired is the backlog's historical watermark.
	MaxRetired uint64 `json:"max_retired"`
	// Active is the current allocated-and-not-retired node count.
	Active uint64 `json:"active"`
	// MaxActive is the paper's max_active — the robustness bound's budget.
	MaxActive uint64 `json:"max_active"`
	// TravSteps and TravRestarts are the domain's cumulative traversal
	// step and restart counters, and GuardTrips counts operations aborted
	// at the traversal step budget. A restart storm shows as TravRestarts
	// (or GuardTrips) climbing while Ops stalls — the live signal that a
	// ballooning Retired backlog is traversal-induced, not a scheme fault.
	TravSteps    uint64 `json:"trav_steps"`
	TravRestarts uint64 `json:"trav_restarts"`
	GuardTrips   uint64 `json:"guard_trips"`
	// Resilience activity on the domain, when an exec/resil layer serves
	// it: cumulative scatter legs shed by admission control, retry legs
	// re-submitted, hedge calls launched, and the shard's current
	// admission state (exec.Health values; 0 = healthy). These make
	// resilience *activity* — not just its symptoms — visible to the
	// Monitor and the timeline join.
	Sheds   uint64 `json:"sheds,omitempty"`
	Retries uint64 `json:"retries,omitempty"`
	Hedges  uint64 `json:"hedges,omitempty"`
	Health  uint8  `json:"health,omitempty"`
}

// Series is a fixed-capacity ring buffer of Points: the sampler pushes,
// readers take ordered copies. Old points are overwritten once the ring is
// full — for the growth fit only the recent window matters, and a bounded
// buffer is what keeps long-lived sampling low-overhead.
type Series struct {
	mu   sync.Mutex
	buf  []Point
	head int // next write position
	n    int // number of valid points (≤ len(buf))
}

// NewSeries builds a series holding at most capacity points; capacity <= 0
// selects 1024.
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Series{buf: make([]Point, capacity)}
}

// Push appends a point, overwriting the oldest once full.
func (s *Series) Push(p Point) {
	s.mu.Lock()
	s.buf[s.head] = p
	s.head = (s.head + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Points returns the buffered points oldest-first. The copy is safe to
// read while the sampler keeps pushing.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, s.n)
	start := s.head - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		out[i] = s.buf[(start+i)%len(s.buf)]
	}
	return out
}

// Probe reads one point per monitored domain. The sampler calls it on
// every tick; the slice must keep the same length and domain order across
// calls (domain i feeds series i). The store's telemetry tap
// (store.Gauges) is the canonical probe.
type Probe func() []Point

// Config sizes a Sampler.
type Config struct {
	// Interval is the sampling tick; 0 selects 1ms.
	Interval time.Duration
	// Capacity is the per-domain ring capacity; 0 selects 1024.
	Capacity int
	// OnSample, when non-nil, receives every point right after it is
	// pushed into domain i's series — the hook the online classifier
	// (Monitor.Observe) feeds from. Called on the sampler goroutine, so
	// it must not block on the sampler itself.
	OnSample func(domain int, p Point)
	// Clock, when non-nil, supplies t=0 for Point.Elapsed stamps. Share
	// one rec.Clock with the chaos engine and the adapt controller and
	// the three logs merge without per-subsystem zero-point skew; nil
	// keeps the old behaviour (a private zero taken at Start).
	Clock *rec.Clock
	// Recorder, when non-nil, receives a KindSamplerGap event whenever
	// ticks are found to have been skipped — sampling gaps become part
	// of the recorded timeline instead of silently flattening series.
	Recorder *rec.Recorder
}

// Sampler polls a Probe on a tick into one Series per domain. Start it
// once; Stop is idempotent and takes a final sample so short runs always
// end with fresh data.
type Sampler struct {
	cfg    Config
	probe  Probe
	series []*Series

	clock    *rec.Clock
	startOff time.Duration // clock reading at Start, for expected-tick math
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// Tick-health counters. The ticker (time.Ticker) silently drops
	// ticks when the probe outruns the interval; these make every lost
	// or overrunning tick countable so a sampling gap cannot masquerade
	// as a flat series. Written only on the sampler goroutine, read
	// anywhere via Health().
	ticks   atomic.Uint64
	skipped atomic.Uint64
	late    atomic.Uint64
}

// Health is the sampler's self-diagnosis: ticks that fired, ticks the
// ticker dropped because sampling fell behind, and samples whose probe
// took longer than the interval (each of those is about to cause drops).
type Health struct {
	Ticks        uint64 `json:"ticks"`
	SkippedTicks uint64 `json:"skipped_ticks"`
	LateSamples  uint64 `json:"late_samples"`
}

// Health returns the live tick-health counters. Safe to call while the
// sampler runs.
func (s *Sampler) Health() Health {
	return Health{
		Ticks:        s.ticks.Load(),
		SkippedTicks: s.skipped.Load(),
		LateSamples:  s.late.Load(),
	}
}

// NewSampler builds a sampler over probe. The probe is called once here to
// size the per-domain series, so it must already be safe to call.
func NewSampler(cfg Config, probe Probe) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Millisecond
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	s := &Sampler{
		cfg:   cfg,
		probe: probe,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for range probe() {
		s.series = append(s.series, NewSeries(cfg.Capacity))
	}
	return s
}

// Series returns domain i's series (live: the sampler keeps pushing into
// it until Stop).
func (s *Sampler) Series(i int) *Series { return s.series[i] }

// sample takes one probe reading and distributes it to the series.
func (s *Sampler) sample() {
	pts := s.probe()
	el := s.clock.Now()
	for i, p := range pts {
		if i >= len(s.series) {
			break
		}
		p.Elapsed = el
		s.series[i].Push(p)
		if s.cfg.OnSample != nil {
			s.cfg.OnSample(i, p)
		}
	}
}

// Start launches the sampling goroutine and records t=0 (the shared
// clock's zero when Config.Clock is set, else now). It samples once
// immediately so every series has a baseline point.
func (s *Sampler) Start() {
	if s.clock = s.cfg.Clock; s.clock == nil {
		s.clock = rec.NewClock()
	}
	s.startOff = s.clock.Now()
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				t0 := time.Now()
				s.sample()
				if time.Since(t0) > s.cfg.Interval {
					s.late.Add(1)
				}
				fired := s.ticks.Add(1)
				// The ticker drops ticks it could not deliver; the gap
				// between elapsed/interval and the fired count is exactly
				// how many.
				expected := uint64((s.clock.Now() - s.startOff) / s.cfg.Interval)
				if expected > fired {
					if miss := expected - fired; miss > s.skipped.Load() {
						newly := miss - s.skipped.Load()
						s.skipped.Store(miss)
						s.cfg.Recorder.Record(rec.KindSamplerGap, -1, 0, newly, s.late.Load(), "")
					}
				}
			}
		}
	}()
}

// Stop halts sampling, takes one final sample, and waits for the
// goroutine to exit. Idempotent.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		<-s.done
		s.sample()
	})
}
