package resil

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
)

// The breaker's tuning.
const (
	// breakerEWMA is the failure-rate smoothing factor.
	breakerEWMA = 0.2
	// breakerOpenAt is the smoothed failure rate that trips a healthy
	// shard open, once breakerMinObs leg outcomes back it.
	breakerOpenAt = 0.5
	breakerMinObs = 8
	// openFor is how long an open breaker fast-fails before probing.
	openFor = 50 * time.Millisecond
	// halfOpenProbes is how many probes a probing shard admits, and how
	// many consecutive successes heal it.
	halfOpenProbes = 3
)

// breaker is one shard's circuit-breaker ledger: the failure EWMA and the
// probe ledger. Its position is not here but in the executor's health
// word (exec.Healthy → exec.Open → exec.Probing → exec.Healthy), moved by
// CAS through exec.Executor.Transition; mu orders the ledger against
// those moves. Nothing here is on the healthy path: allowShard reads the
// word and returns.
type breaker struct {
	mu       sync.Mutex
	ewma     float64
	obs      int
	openedAt time.Time
	// probes / okProbes track probe grants and their successes.
	probes   int
	okProbes int
	opens    uint64
}

// BreakerStats is one shard's breaker snapshot; the breaker's position is
// the shard's exec.Health.
type BreakerStats struct {
	Shard int `json:"shard"`
	// EWMA is the smoothed recent failure rate in [0,1].
	EWMA float64 `json:"ewma"`
	// Opens counts trips into exec.Open.
	Opens uint64 `json:"opens"`
}

// transition moves shard s's health word from → to (b locked) and resets
// the ledger for the new position; it reports whether the word moved.
func (c *Client) transition(s int, b *breaker, from, to exec.Health, reason string) bool {
	if !c.ex.Transition(s, from, to, reason) {
		return false
	}
	b.probes, b.okProbes = 0, 0
	switch to {
	case exec.Open:
		b.opens++
		b.openedAt = time.Now()
	case exec.Healthy:
		b.ewma, b.obs = 0, 0
	}
	return true
}

// allowShard decides from shard s's health whether this attempt may touch
// the shard; probe reports that the grant is a probe whose outcome must
// feed the probe ledger. Healthy and Parked shards admit (exec sheds
// what a parked shard cannot take); a Degraded shard — the verdict, or a
// manual override — fast-fails until the state clears; an Open one until
// openFor has passed, when it starts Probing. Without breakers every
// shard admits.
func (c *Client) allowShard(s int) (admit, probe bool) {
	if c.breakers == nil {
		return true, false
	}
	switch c.ex.Health(s) {
	case exec.Healthy, exec.Parked:
		return true, false
	case exec.Degraded:
		return false, false
	}
	b := &c.breakers[s]
	b.mu.Lock()
	defer b.mu.Unlock()
	h := c.ex.Health(s)
	if h == exec.Open && time.Since(b.openedAt) >= openFor &&
		c.transition(s, b, exec.Open, exec.Probing, "open window elapsed") {
		h = exec.Probing
	}
	if h != exec.Probing || b.probes >= halfOpenProbes {
		return false, false
	}
	b.probes++
	return true, true
}

// observeBreaker feeds one shard-touch outcome back into the shard's
// breaker: every outcome drives the failure EWMA, probes drive the probe
// ledger, and a healthy shard trips open once the smoothed rate crosses
// the threshold with enough evidence behind it.
func (c *Client) observeBreaker(s int, ok, probe bool) {
	if c.breakers == nil {
		return
	}
	b := &c.breakers[s]
	b.mu.Lock()
	defer b.mu.Unlock()
	x := 1.0
	if ok {
		x = 0
	}
	b.ewma += breakerEWMA * (x - b.ewma)
	b.obs++
	switch {
	case probe && !ok:
		c.transition(s, b, exec.Probing, exec.Open, "probe failed")
	case probe:
		if b.okProbes++; b.okProbes >= halfOpenProbes {
			c.transition(s, b, exec.Probing, exec.Healthy, "probes ok")
		}
	case b.obs >= breakerMinObs && b.ewma > breakerOpenAt:
		c.transition(s, b, exec.Healthy, exec.Open, fmt.Sprintf("failure ewma %.2f", b.ewma))
	}
}

// breakerStats snapshots shard s's breaker.
func (c *Client) breakerStats(s int) BreakerStats {
	b := &c.breakers[s]
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{Shard: s, EWMA: b.ewma, Opens: b.opens}
}
