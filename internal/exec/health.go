package exec

import (
	"repro/internal/obs/rec"
	"repro/internal/smr"
	"repro/internal/workload"
)

// Health is a shard's admission state: the one answer to "is this shard
// in trouble, and why" that admission, pumps, hedging and the resilience
// layer's breaker all read through Executor.Health.
type Health uint8

const (
	// Healthy shards apply blocking backpressure and may be hedged.
	Healthy Health = iota
	// Degraded shards queue legs while there is room and shed the rest,
	// and are never hedged: the monitor's latest conclusive verdict audits
	// the shard NotRobust, or Transition wrote it.
	Degraded
	// Parked shards have maxStalled store calls still running past their
	// leg budget: new legs shed outright and queued ones fail fast. This
	// is the signal for a fully-parked shard, whose frozen ops counter
	// keeps the backlog verdict inconclusive.
	Parked
	// Open is a tripped circuit breaker: the resilience layer fast-fails
	// the shard's keys, and exec admits its legs as if Degraded.
	Open
	// Probing is a half-open breaker: the resilience layer admits a
	// bounded number of probes, and exec admits legs as if Degraded.
	Probing
)

// maxStalled bounds how many timed-out store calls may linger per shard
// before the shard reads Parked: a never-healing fault then neither
// accumulates unbounded blocked goroutines nor burns a leg budget per
// request.
const maxStalled = 8

// Health reports shard s's admission state from its three inputs, in
// precedence order: the stalled-call gauge (with a leg budget
// configured), the explicit word the breaker writes through Transition, and
// the monitor's latest conclusive verdict. With no budget and no monitor
// it is one atomic load.
func (ex *Executor) Health(s int) Health {
	if s < 0 || s >= len(ex.queues) {
		return Healthy
	}
	q := ex.queues[s]
	if ex.cfg.LegTimeout >= 0 && q.stalled.Load() >= maxStalled {
		return Parked
	}
	if h := Health(q.health.Load()); h != Healthy {
		return h
	}
	if c, ok := ex.cfg.Verdicts.Class(s); ok && c == smr.NotRobust {
		return Degraded
	}
	return Healthy
}

// Transition moves shard s's health word from one state to another if it
// still holds from, stamps the move and its reason on the flight
// recorder, and reports whether it moved. The resilience layer's breaker
// runs its open/probing/healthy cycle through it.
func (ex *Executor) Transition(s int, from, to Health, reason string) bool {
	if s < 0 || s >= len(ex.queues) || !ex.queues[s].health.CompareAndSwap(uint32(from), uint32(to)) {
		return false
	}
	ex.cfg.Recorder.Record(rec.KindHealth, s, 0, uint64(to), uint64(from), reason)
	return true
}

// Stats is a point-in-time snapshot of the executor's accounting: the
// request ledger (submitted by kind, completed, partial) and the
// per-shard scatter-leg ledger (executed, shed, stalled).
type Stats struct {
	// Submitted counts requests accepted, by request-kind name.
	Submitted map[string]uint64
	// Requests, Completed and Partial count whole requests; Partial are
	// completed requests carrying at least one per-shard error.
	Requests  uint64
	Completed uint64
	Partial   uint64
	// Legs, Sheds, Timeouts and LegErrs aggregate the per-shard ledgers.
	Legs     uint64
	Sheds    uint64
	Timeouts uint64
	LegErrs  uint64
	// Hedges, HedgeWins and HedgeWaste aggregate the hedging ledgers;
	// HedgeUnits weighs the hedges by operation count (1 per range leg).
	Hedges     uint64
	HedgeWins  uint64
	HedgeWaste uint64
	HedgeUnits uint64
	// Shards holds one entry per store shard.
	Shards []ShardExecStats
}

// ShardExecStats is one shard's scatter-leg ledger.
type ShardExecStats struct {
	Shard int
	// Queued and QueueCap are the leg queue's depth gauge and capacity.
	Queued   int
	QueueCap int
	// Health is the shard's current admission state.
	Health Health
	// Stalled gauges store calls still running past their leg's budget.
	Stalled int
	// Legs counts legs accepted onto the queue; Sheds legs refused by
	// admission control; Timeouts legs that exceeded their budget (failed
	// fast included); LegErrs legs whose store call failed wholesale.
	Legs     uint64
	Sheds    uint64
	Timeouts uint64
	LegErrs  uint64
	// Hedges counts speculative calls launched by the hedge policy;
	// HedgeWins hedge calls that won their leg's completion latch;
	// HedgeWaste completions discarded because the leg's other call won —
	// the wasted-work ledger. HedgeUnits weighs the hedges by operation
	// count (1 per range leg).
	Hedges     uint64
	HedgeWins  uint64
	HedgeWaste uint64
	HedgeUnits uint64
}

// Stats snapshots the executor's accounting. Safe to call concurrently
// with traffic; counters are read individually, so the snapshot is
// approximate under load but every counter is exact.
func (ex *Executor) Stats() Stats {
	st := Stats{Submitted: make(map[string]uint64, len(ex.submitted))}
	for k := range ex.submitted {
		if n := ex.submitted[k].Load(); n > 0 {
			st.Submitted[workload.ReqKind(k).String()] = n
		}
		st.Requests += ex.submitted[k].Load()
	}
	st.Completed = ex.completed.Load()
	st.Partial = ex.partial.Load()
	for s, q := range ex.queues {
		sh := ShardExecStats{
			Shard:      s,
			Queued:     len(q.legs),
			QueueCap:   cap(q.legs),
			Health:     ex.Health(s),
			Stalled:    int(q.stalled.Load()),
			Legs:       q.legsTotal.Load(),
			Sheds:      q.sheds.Load(),
			Timeouts:   q.timeouts.Load(),
			LegErrs:    q.legErrs.Load(),
			Hedges:     q.hedges.Load(),
			HedgeWins:  q.hedgeWins.Load(),
			HedgeWaste: q.hedgeWaste.Load(),
			HedgeUnits: q.hedgeUnits.Load(),
		}
		st.Legs += sh.Legs
		st.Sheds += sh.Sheds
		st.Timeouts += sh.Timeouts
		st.LegErrs += sh.LegErrs
		st.Hedges += sh.Hedges
		st.HedgeWins += sh.HedgeWins
		st.HedgeWaste += sh.HedgeWaste
		st.HedgeUnits += sh.HedgeUnits
		st.Shards = append(st.Shards, sh)
	}
	return st
}
