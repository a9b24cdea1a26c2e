package resil

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// The hedge delay is the hedgeQuantile of settled call latencies, floored
// at hedgeMin so a microsecond-fast store cannot hedge every leg.
const (
	hedgeQuantile = 0.99
	hedgeMin      = 200 * time.Microsecond
)

// hedgePolicy is the client's exec.HedgePolicy: a log-bucketed latency
// histogram of every landed store call, refreshed into a hedge delay at
// hedgeQuantile every HedgeWindow observations. Until the
// first refresh the delay is zero and the executor hedges nothing — the
// cold-start guard that keeps a fresh client from hedging every leg.
//
// The same Observe stream doubles as the per-shard latency feed for the
// SLO verdict dimension (onLat), so deployments that only want SLO
// observation run the policy with hedging disabled.
type hedgePolicy struct {
	enabled bool
	every   uint64
	onLat   func(shard int, d time.Duration)

	mu sync.Mutex
	h  hist.Latency
	n  uint64

	delay atomic.Int64 // current hedge delay, ns; 0 = cold
}

// Delay returns the hedge delay for shard legs (the policy tracks one
// store-wide distribution — a leg is hedged because it is an outlier
// against the fleet, not against its own struggling shard).
func (p *hedgePolicy) Delay(shard int) time.Duration {
	if !p.enabled {
		return 0
	}
	return time.Duration(p.delay.Load())
}

// Observe feeds one landed call's latency into the quantile tracker and
// the SLO latency feed.
func (p *hedgePolicy) Observe(shard int, d time.Duration) {
	if p.onLat != nil {
		p.onLat(shard, d)
	}
	if !p.enabled {
		return
	}
	p.mu.Lock()
	p.h.Record(d)
	p.n++
	if p.n%p.every == 0 {
		p.delay.Store(int64(max(p.h.Percentile(hedgeQuantile), hedgeMin)))
	}
	p.mu.Unlock()
}
