package telemetry

import (
	"sync"
	"testing"
	"time"
)

// Series is shared between the sampler goroutine (Push) and arbitrary
// readers (Points, Last, Len) — the live /metrics and /timeline handlers
// read it mid-run. Run with -race.
func TestSeriesConcurrentPushPointsLast(t *testing.T) {
	s := NewSeries(64)
	const writers, readers, per = 2, 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Push(Point{Elapsed: time.Duration(i), Ops: uint64(i)})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pts := s.Points()
				if len(pts) > 64 {
					t.Errorf("Points() returned %d points from a 64-ring", len(pts))
					return
				}
				// Within one writer's stream Ops is monotone; with two
				// interleaved writers the invariant that must hold is just
				// internal consistency: the copy stays within the ring's
				// bound and its newest point is one some writer pushed.
				if n := len(pts); n > 0 && pts[n-1].Ops >= per {
					t.Errorf("Points() returned never-pushed point %+v", pts[n-1])
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(s.Points()); got != 64 {
		t.Fatalf("Points() holds %d after %d pushes into a 64-ring", got, writers*per)
	}
}

// A single writer's view must stay ordered no matter how many readers
// are copying the ring underneath it.
func TestSeriesSingleWriterOrdered(t *testing.T) {
	s := NewSeries(128)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				pts := s.Points()
				for i := 1; i < len(pts); i++ {
					if pts[i].Ops < pts[i-1].Ops {
						t.Errorf("Points() out of order: %d after %d", pts[i].Ops, pts[i-1].Ops)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		s.Push(Point{Ops: uint64(i)})
	}
	close(done)
	wg.Wait()
}

// Sampler tick health: a probe that outruns the interval must surface
// skipped/late ticks rather than silently thinning the series.
func TestSamplerHealthCountsOverrun(t *testing.T) {
	probe := func() []Point {
		time.Sleep(3 * time.Millisecond)
		return []Point{{}}
	}
	s := NewSampler(Config{Interval: 500 * time.Microsecond, Capacity: 64}, probe)
	s.Start()
	time.Sleep(30 * time.Millisecond)
	s.Stop()
	h := s.Health()
	if h.Ticks == 0 {
		t.Fatal("no ticks fired")
	}
	if h.LateSamples == 0 {
		t.Fatalf("probe sleeps 6× the interval, LateSamples = 0 (health %+v)", h)
	}
	if h.SkippedTicks == 0 {
		t.Fatalf("probe sleeps 6× the interval, SkippedTicks = 0 (health %+v)", h)
	}
}

// A probe faster than the interval must not report phantom gaps.
func TestSamplerHealthCleanRun(t *testing.T) {
	s := NewSampler(Config{Interval: 2 * time.Millisecond, Capacity: 64},
		func() []Point { return []Point{{}} })
	s.Start()
	time.Sleep(20 * time.Millisecond)
	s.Stop()
	if h := s.Health(); h.LateSamples != 0 {
		t.Fatalf("instant probe reported %d late samples", h.LateSamples)
	}
}
