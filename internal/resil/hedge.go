package resil

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// The hedge delay is the hedgeQuantile of settled call latencies, floored
// at hedgeMin so a microsecond-fast store cannot hedge every leg, and
// refreshed every hedgeWindow landed calls.
const (
	hedgeQuantile = 0.99
	hedgeMin      = 200 * time.Microsecond
	hedgeWindow   = 64
)

// hedgePolicy is the client's exec.HedgePolicy: a log-bucketed latency
// histogram of every landed store call, refreshed into a hedge delay at
// hedgeQuantile every hedgeWindow observations. Until the
// first refresh the delay is zero and the executor hedges nothing — the
// cold-start guard that keeps a fresh client from hedging every leg.
type hedgePolicy struct {
	mu sync.Mutex
	h  hist.Latency
	n  uint64

	delay atomic.Int64 // current hedge delay, ns; 0 = cold
}

// Delay returns the hedge delay for shard legs (the policy tracks one
// store-wide distribution — a leg is hedged because it is an outlier
// against the fleet, not against its own struggling shard).
func (p *hedgePolicy) Delay(shard int) time.Duration {
	return time.Duration(p.delay.Load())
}

// Observe feeds one landed call's latency into the quantile tracker.
func (p *hedgePolicy) Observe(shard int, d time.Duration) {
	p.mu.Lock()
	p.h.Record(d)
	p.n++
	if p.n%hedgeWindow == 0 {
		p.delay.Store(int64(max(p.h.Percentile(hedgeQuantile), hedgeMin)))
	}
	p.mu.Unlock()
}
