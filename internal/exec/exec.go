// Package exec is the pipelined scatter-gather execution layer over the
// sharded store: the subsystem that turns the one request shape the store
// serves natively (a blocking, single-shard-batched point-op Do) into the
// request graph a production service actually sees — multi-key
// operations, range queries, and asynchronous completion.
//
// A cross-shard request compiles into scatter legs: one per touched
// shard (a point-op sub-batch, or a range walk over the shard
// structure's iterator) plus a merge stage that assembles the legs'
// outcomes into one Result. Submission is asynchronous end to end: the
// caller gets a completion Handle (or registers a callback), each leg is
// handed to its shard through the store's non-blocking async submission
// path (DoShardAsync / ScanShardAsync), and the shard worker that
// completes a request's last leg runs the merge stage itself. No
// goroutine blocks per in-flight leg, so a client can keep a deep window
// of requests in flight instead of paying a scatter→merge round trip —
// and two scheduler hand-offs — per request.
//
// Failure is partial by construction. A leg that cannot complete — its
// shard drained for migration, its scan guard-tripped, its worker parked
// at a chaos fault past the leg's completion budget — yields a *typed
// per-shard error* (ShardError wrapping ErrShed, ErrLegStalled,
// store.ErrShardClosed, or the structure's guard error) inside an
// otherwise successful Result; the fan-out as a whole never fails because
// one shard did.
//
// Admission control is what keeps fan-out traffic from amplifying a
// single-shard stall into a fleet-wide pileup: every shard has a bounded
// leg queue and one health state (Health, health.go) combining the
// monitor's verdict, the stalled-call gauge and an explicit word the
// breaker writes. Healthy shards keep classic backpressure: a full queue
// blocks the submitter. A shard in any other state stops blocking — new
// legs are queued only if there is room and shed with a typed error
// otherwise, counted and stamped onto the flight recorder with the state
// that caused them — and a Parked shard sheds outright.
package exec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/rec"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Errors reported by the execution layer.
var (
	// ErrClosed reports a submission to a closed executor.
	ErrClosed = errors.New("exec: executor closed")
	// ErrShed reports a scatter leg refused by admission control: the
	// shard is Parked, or not Healthy and its leg queue is full.
	ErrShed = errors.New("exec: scatter leg shed by admission control")
	// ErrLegStalled reports a scatter leg that exceeded its completion
	// budget — the fan-out shape a fault-parked shard worker produces.
	ErrLegStalled = errors.New("exec: scatter leg exceeded its completion budget")
)

// ShardError is a typed per-shard partial failure: which shard's leg
// failed and why. It unwraps to the underlying reason, so errors.Is
// matches ErrShed / ErrLegStalled / store.ErrShardClosed /
// ds.ErrTraversalGuard through it.
type ShardError struct {
	Shard  int
	Reason error
	// NotExecuted marks a leg the store never ran: shed, refused or
	// closed at hand-off, or out of budget before hand-off. Only such a
	// write leg is safe to re-submit; a stalled one's call still applies.
	NotExecuted bool
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("exec: shard %d: %v", e.Shard, e.Reason)
}

func (e *ShardError) Unwrap() error { return e.Reason }

// HedgePolicy is the executor's tail-latency speculation signal,
// supplied by the resilience layer. Delay(s) returns how long shard s's
// scatter leg may run before one hedge call is launched against the same
// shard (<= 0 disables hedging for that leg — the cold-start state while
// the policy's quantile tracker has no data). Observe feeds back the
// latency of each call that settles its leg — hedge-race losers and
// failed calls are excluded, so a fault latency that hedging masked
// cannot poison the tracked quantile and chase the delay upward.
// Implementations must be cheap and safe for concurrent use; both
// methods are called on hot paths.
type HedgePolicy interface {
	Delay(shard int) time.Duration
	Observe(shard int, d time.Duration)
}

// Config assembles an Executor.
type Config struct {
	// QueueDepth is the per-shard scatter-leg queue capacity; 0 selects 64.
	QueueDepth int
	// DispatchersPerShard sizes the per-shard pump pool that drains the
	// leg queue into the store's async submission path; 0 selects 2. The
	// pumps only hand legs off (completion is the shard worker's), so the
	// pool needs no depth — extra pumps merely parallelize retries when
	// the shard's own request queue is full.
	DispatchersPerShard int
	// LegTimeout is a scatter leg's completion budget: a leg still running
	// after it completes with a typed ErrLegStalled ShardError while the
	// store call finishes (and is discarded) in the background. 0 selects
	// 1s; negative disables the budget (legs wait indefinitely).
	LegTimeout time.Duration
	// Verdicts, when set, degrades shard i while monitor domain i's latest
	// conclusive audited class is NotRobust — the same evidence that makes
	// the adaptive controller climb the reclamation ladder. The monitor
	// publishes it on every sample; admission reads it lock-free.
	Verdicts *telemetry.Monitor
	// Hedge, when non-nil, enables hedged legs: a read-only scatter leg
	// still running past the policy's delay launches one speculative
	// duplicate call against the same shard; the first completion wins
	// the leg's latch and the loser is discarded through the late-call
	// discard path, counted as wasted work. Legs that write are never
	// hedged: both calls would apply. Hedges are refused unless the shard
	// is Healthy — speculation must never amplify a struggling shard's
	// load.
	Hedge HedgePolicy
	// Clock and Recorder, when set, stamp scatter/merge/shed events onto
	// the observability plane's shared tape. Nil keeps the layer silent.
	Clock    *rec.Clock
	Recorder *rec.Recorder
}

func (cfg *Config) fill() {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DispatchersPerShard <= 0 {
		cfg.DispatchersPerShard = 2
	}
	if cfg.LegTimeout == 0 {
		cfg.LegTimeout = time.Second
	}
}

// Result is a cross-shard request's merged outcome.
type Result struct {
	Kind workload.ReqKind
	// Results align position-for-position with the submitted keys
	// (point and multi-key requests). A key whose leg failed wholesale
	// carries that leg's ShardError in its Err.
	Results []store.Result
	// Keys is the merged range-scan payload, sorted ascending and trimmed
	// to the request's limit. Nil for non-scan requests.
	Keys []int64
	// Count is the range match count (for RangeScan after trimming,
	// len(Keys)).
	Count uint64
	// ShardErrs are the per-shard partial failures, in shard order.
	ShardErrs []ShardError
	// Elapsed is the scatter→merge latency.
	Elapsed time.Duration
}

// Partial reports that at least one scatter leg failed wholesale.
func (r *Result) Partial() bool { return len(r.ShardErrs) > 0 }

// legState is a leg's single-completion latch.
const (
	legPending int32 = iota
	legDone
	legStalled
)

// callState is one store call's landing latch. A leg may have up to two
// calls in flight (primary + hedge); the per-call latch keeps the
// shard's stalled gauge exact — each call is counted overdue at most
// once, and decremented exactly when that same call finally lands.
const (
	callRunning int32 = iota
	callLanded        // finish ran for this call
	callCounted       // the completion budget counted this call into the stalled gauge
)

// call is one store call issued for a leg: the primary hand-off or its
// hedge. Each call owns a private result buffer, so two calls racing on
// the same leg can never scribble on each other's (or the caller's)
// results; only the call that wins the leg's completion latch applies
// its payload to the handle.
type call struct {
	l     *leg
	hedge bool
	state atomic.Int32
	// out is a point/multi call's private result buffer; nil on the
	// direct-write path (no budget, no hedging), where the worker fills
	// the handle's slice in place.
	out []store.Result
	// start stamps the hand-off for the hedge policy's latency feed.
	start time.Time
}

// leg is one scatter leg in flight.
type leg struct {
	h     *Handle
	shard int
	kind  workload.ReqKind
	state atomic.Int32
	// Point/multi legs: the grouped ops and their positions in the
	// request's result slice.
	ops []store.Op
	idx []int
	// Range legs.
	scan      bool
	lo, hi    int64
	limit     int
	countOnly bool
	// calls are the leg's store calls: slot 0 the primary, slot 1 the
	// hedge (if one launched). Published after store acceptance; the
	// budget's overdue sweep walks them.
	calls [2]atomic.Pointer[call]
	// timer is the leg's armed completion budget, published after the
	// store accepted the hand-off so finish can disarm it.
	timer atomic.Pointer[time.Timer]
	// hedgeTimer is the armed hedge delay (only with a HedgePolicy).
	hedgeTimer atomic.Pointer[time.Timer]
}

// Handle is a submitted request's completion handle. Wait (or Done) and
// the optional callback observe the merged Result exactly once; all
// methods are safe for concurrent use.
type Handle struct {
	ex      *Executor
	pending atomic.Int32
	start   time.Time
	limit   int

	mu  sync.Mutex // guards res assembly from concurrently completing legs
	res *Result    // points at resv; one handle, one allocation
	cb  func(*Result)

	resv Result

	done chan struct{}
}

// Done returns a channel closed when the merge stage has run.
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the merge stage has run and returns the Result.
func (h *Handle) Wait() *Result {
	<-h.done
	return h.res
}

// shardQueue is one shard's admission-controlled leg queue plus its
// execution accounting.
type shardQueue struct {
	legs chan *leg
	// health is the shard's explicit Health word: Healthy, or what the
	// breaker last wrote through Transition.
	health atomic.Uint32
	// stalled counts store calls that outlived their leg's budget and are
	// still running — the fail-fast valve's gauge.
	stalled atomic.Int32

	legsTotal atomic.Uint64
	sheds     atomic.Uint64
	timeouts  atomic.Uint64
	legErrs   atomic.Uint64

	// Hedging accounting: hedge calls launched, hedge calls that won
	// their leg's latch, and discarded completions of hedged legs (every
	// hedged leg that completes lands exactly one wasted call).
	// hedgeUnits weighs the hedges by operation count (1 per range leg)
	// for the resilience layer's load-amplification ledger.
	hedges     atomic.Uint64
	hedgeWins  atomic.Uint64
	hedgeWaste atomic.Uint64
	hedgeUnits atomic.Uint64
}

// Executor is the scatter-gather execution layer over one store. All
// methods are safe for concurrent use.
type Executor struct {
	st  *store.Store
	cfg Config

	queues []*shardQueue
	wg     sync.WaitGroup

	// mu orders submissions against Close the way the store orders
	// submissions against shard close.
	mu     sync.RWMutex
	closed bool

	submitted [6]atomic.Uint64 // by workload.ReqKind
	completed atomic.Uint64
	partial   atomic.Uint64
}

// New builds an executor over st and starts its dispatcher pools.
func New(st *store.Store, cfg Config) (*Executor, error) {
	if st == nil {
		return nil, errors.New("exec: executor needs a store")
	}
	cfg.fill()
	ex := &Executor{st: st, cfg: cfg}
	for s := 0; s < st.Shards(); s++ {
		q := &shardQueue{legs: make(chan *leg, cfg.QueueDepth)}
		ex.queues = append(ex.queues, q)
		for d := 0; d < cfg.DispatchersPerShard; d++ {
			ex.wg.Add(1)
			go ex.dispatch(q)
		}
	}
	return ex, nil
}

// Submit compiles req into scatter legs, enqueues them under admission
// control, and returns the completion handle. The call blocks only for
// backpressure on healthy shards; other shards shed instead of blocking.
func (ex *Executor) Submit(req workload.Req) (*Handle, error) {
	return ex.SubmitCallback(req, nil)
}

// SubmitCallback is Submit with a completion callback: fn (when non-nil)
// runs exactly once, on the goroutine that completes the request's last
// leg, right before the handle's Done channel closes. It must not block.
func (ex *Executor) SubmitCallback(req workload.Req, fn func(*Result)) (*Handle, error) {
	kind := req.Kind
	if int(kind) >= len(ex.submitted) {
		return nil, fmt.Errorf("exec: unknown request kind %d", kind)
	}
	h := &Handle{ex: ex, start: time.Now(), done: make(chan struct{}), cb: fn}
	h.res = &h.resv
	h.res.Kind = kind

	// legs live in one contiguous allocation; enqueue takes their
	// addresses.
	var legs []leg
	totalOps := 0
	switch kind {
	case workload.ReqPoint, workload.ReqMultiGet, workload.ReqMultiInsert, workload.ReqMultiDelete:
		if kind == workload.ReqPoint && len(req.Ops) != len(req.Keys) {
			return nil, fmt.Errorf("exec: point request has %d ops for %d keys", len(req.Ops), len(req.Keys))
		}
		n := len(req.Keys)
		totalOps = n
		h.res.Results = make([]store.Result, n)
		// Flat two-pass partition: count per shard, prefix offsets, then
		// slice one ops array and one index array — the grouping Do does,
		// minus the per-shard append growth.
		shards := ex.st.Shards()
		count := make([]int, 2*shards)
		offs := count[shards:]
		for _, k := range req.Keys {
			count[ex.st.ShardFor(k)]++
		}
		sum, touched := 0, 0
		for s := 0; s < shards; s++ {
			offs[s] = sum
			sum += count[s]
			if count[s] > 0 {
				touched++
			}
		}
		opsFlat := make([]store.Op, n)
		idxFlat := make([]int, n)
		for i, k := range req.Keys {
			op := store.Op{Key: k}
			if kind == workload.ReqPoint {
				op.Kind = req.Ops[i]
			} else {
				op.Kind = multiOpKind(kind)
			}
			s := ex.st.ShardFor(k)
			opsFlat[offs[s]] = op
			idxFlat[offs[s]] = i
			offs[s]++
		}
		legs = make([]leg, 0, touched)
		for s := 0; s < shards; s++ {
			if count[s] == 0 {
				continue
			}
			lo := offs[s] - count[s]
			// Key-sort each leg in place so the shard worker's fused path
			// sees ascending keys and its predecessor cache holds across
			// consecutive ops; idx travels with its op, so results still
			// land at the caller's positions. The sort is stable, which
			// preserves submission order between duplicate keys.
			sortLeg(opsFlat[lo:offs[s]], idxFlat[lo:offs[s]])
			legs = append(legs, leg{
				h: h, shard: s, kind: kind,
				ops: opsFlat[lo:offs[s]], idx: idxFlat[lo:offs[s]],
			})
		}
	case workload.ReqRangeScan, workload.ReqRangeCount:
		if req.Hi > req.Lo {
			limit := 0
			if kind == workload.ReqRangeScan && len(req.Keys) == 1 && req.Keys[0] > 0 {
				limit = int(req.Keys[0])
			}
			h.limit = limit
			legs = make([]leg, ex.st.Shards())
			for s := range legs {
				legs[s] = leg{
					h: h, shard: s, kind: kind, scan: true,
					lo: req.Lo, hi: req.Hi, limit: limit,
					countOnly: kind == workload.ReqRangeCount,
				}
			}
		}
	default:
		return nil, fmt.Errorf("exec: unknown request kind %d", kind)
	}

	ex.mu.RLock()
	if ex.closed {
		ex.mu.RUnlock()
		return nil, ErrClosed
	}
	ex.submitted[kind].Add(1)
	ex.cfg.Recorder.Record(rec.KindExecScatter, -1, 0, uint64(len(legs)), uint64(totalOps), kind.String())
	if len(legs) == 0 {
		ex.mu.RUnlock()
		h.pending.Store(1)
		h.complete()
		return h, nil
	}
	h.pending.Store(int32(len(legs)))
	// Enqueue under the read lock (Close flips closed under the write
	// lock, so no leg lands on a queue Close has already drained).
	for i := range legs {
		ex.enqueue(&legs[i])
	}
	ex.mu.RUnlock()
	return h, nil
}

// sortLeg stable-sorts one leg's (ops, idx) segment by key with a plain
// insertion sort: zero allocations, O(n) on the nearly-sorted segments
// sequential key generators produce, and legs are small (a request's keys
// divided across shards). Strict > comparison keeps duplicate keys in
// submission order.
func sortLeg(ops []store.Op, idx []int) {
	for i := 1; i < len(ops); i++ {
		op, ix := ops[i], idx[i]
		j := i
		for j > 0 && ops[j-1].Key > op.Key {
			ops[j] = ops[j-1]
			idx[j] = idx[j-1]
			j--
		}
		if j != i {
			ops[j], idx[j] = op, ix
		}
	}
}

// multiOpKind maps a multi-key request kind to its per-key operation.
func multiOpKind(k workload.ReqKind) workload.Op {
	switch k {
	case workload.ReqMultiInsert:
		return workload.OpInsert
	case workload.ReqMultiDelete:
		return workload.OpDelete
	default:
		return workload.OpContains
	}
}

// enqueue places one leg on its shard's queue under the shard's Health:
// Healthy shards apply blocking backpressure (re-reading the state while
// waiting, so a mid-wait flip converts the wait into a shed), Parked
// shards shed outright, and any other state queues without blocking and
// sheds on overflow.
func (ex *Executor) enqueue(l *leg) {
	q := ex.queues[l.shard]
	// Fast path: healthy shard, no queued backlog — hand the leg straight
	// to the store from the submitter, skipping the pump hop entirely.
	if len(q.legs) == 0 && ex.Health(l.shard) == Healthy {
		ok, err := ex.launch(q, l)
		if err != nil {
			q.legErrs.Add(1)
			l.fail(&ShardError{Shard: l.shard, Reason: err, NotExecuted: true})
			return
		}
		if ok {
			q.legsTotal.Add(1)
			return
		}
		// The shard's own request queue is full: fall through to the
		// queued path and let a pump wait the backpressure out.
	}
	for {
		switch h := ex.Health(l.shard); h {
		case Healthy:
			select {
			case q.legs <- l:
				q.legsTotal.Add(1)
				return
			case <-time.After(time.Millisecond):
				// Full healthy queue: keep blocking, but stay responsive to
				// a health flip — that is exactly the moment backpressure
				// must turn into shedding.
			}
		case Parked:
			// Every leg already dispatched is stuck in the store; executing
			// this one could only grow the pile.
			ex.shed(q, l, h)
			return
		default:
			select {
			case q.legs <- l:
				q.legsTotal.Add(1)
			default:
				ex.shed(q, l, h)
			}
			return
		}
	}
}

// shed refuses one leg with the typed admission error, naming the health
// state that refused it on the flight recorder, and completes it.
func (ex *Executor) shed(q *shardQueue, l *leg, h Health) {
	q.sheds.Add(1)
	ex.cfg.Recorder.Record(rec.KindExecShed, l.shard, 0, uint64(len(q.legs)), uint64(h), l.kind.String())
	l.fail(&ShardError{Shard: l.shard, Reason: ErrShed, NotExecuted: true})
}

// dispatch is one pump's loop: drive queued legs to hand-off until
// Close drains the queue.
func (ex *Executor) dispatch(q *shardQueue) {
	defer ex.wg.Done()
	for l := range q.legs {
		ex.pump(q, l)
	}
}

// legOut is one executed leg's raw outcome, held until the completion
// latch decides whether it may touch the handle.
type legOut struct {
	res   []store.Result
	keys  []int64
	count uint64
	err   error
}

// pump drives one queued leg to hand-off: non-blocking offers to the
// shard's request queue, retried under the leg's completion budget.
// The wait-for-room time counts against the budget — a parked shard
// whose queue never drains fails its queued legs here instead of
// wedging the pump forever.
func (ex *Executor) pump(q *shardQueue, l *leg) {
	budget := ex.cfg.LegTimeout >= 0
	var deadline time.Time
	if budget {
		deadline = time.Now().Add(ex.cfg.LegTimeout)
	}
	for {
		if ex.Health(l.shard) == Parked {
			// Launching another leg would just grow the pile. Fail fast
			// with the same typed error a fresh stall would produce.
			q.timeouts.Add(1)
			l.fail(&ShardError{Shard: l.shard, Reason: ErrLegStalled, NotExecuted: true})
			return
		}
		ok, err := ex.launch(q, l)
		if err != nil {
			q.legErrs.Add(1)
			l.fail(&ShardError{Shard: l.shard, Reason: err, NotExecuted: true})
			return
		}
		if ok {
			return
		}
		// The shard's request queue is full: wait the backpressure out,
		// bounded by the completion budget.
		if budget && !time.Now().Before(deadline) {
			q.timeouts.Add(1)
			l.fail(&ShardError{Shard: l.shard, Reason: ErrLegStalled, NotExecuted: true})
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// submitCall offers one call to the store without blocking. On
// acceptance, the call's payload routes back through finish on the shard
// worker's done callback.
func (ex *Executor) submitCall(q *shardQueue, c *call) (bool, error) {
	l := c.l
	c.start = time.Now()
	if l.scan {
		return ex.st.ScanShardAsync(l.shard, l.lo, l.hi, l.limit, l.countOnly,
			func(keys []int64, count uint64, scanErr error) {
				ex.finish(q, c, legOut{keys: keys, count: count, err: scanErr})
			})
	}
	if c.out == nil {
		// Direct-write path (no budget, no hedging): a leg has exactly one
		// call and it can only complete through the worker, so the worker
		// may write results straight into the handle at their final
		// positions — no private buffer, no copy.
		return ex.st.DoShardAsync(l.shard, l.ops, l.h.res.Results, l.idx,
			func() { ex.finish(q, c, legOut{}) })
	}
	return ex.st.DoShardAsync(l.shard, l.ops, c.out, nil,
		func() { ex.finish(q, c, legOut{res: c.out}) })
}

// launch offers one leg's primary call to the store without blocking.
// On acceptance it arms the completion budget (and the hedge delay) and
// returns true; the shard worker that completes the call routes through
// finish. A refusal (false, nil) left the leg untouched and may be
// retried.
func (ex *Executor) launch(q *shardQueue, l *leg) (bool, error) {
	c := &call{l: l}
	hedged := ex.cfg.Hedge != nil && l.readOnly()
	if !l.scan && (ex.cfg.LegTimeout >= 0 || hedged) {
		// A leg that can settle away from its call (budget) or carry two
		// calls (hedge) needs a private buffer per call: the worker fills
		// it, and finish copies it into the handle only after winning the
		// completion latch — a losing call can never scribble on a result
		// the caller is already reading.
		c.out = make([]store.Result, len(l.ops))
	}
	ok, err := ex.submitCall(q, c)
	if !ok || err != nil {
		return false, err
	}
	l.calls[0].Store(c)
	if ex.cfg.LegTimeout >= 0 {
		// Armed only after acceptance, so the budget can never tick for a
		// leg the store refused. A worker so fast that finish already ran
		// leaves a timer firing into a settled latch — a counted no-op.
		l.timer.Store(time.AfterFunc(ex.cfg.LegTimeout, func() { ex.overdue(q, l) }))
	}
	if hedged {
		if d := ex.cfg.Hedge.Delay(l.shard); d > 0 {
			l.hedgeTimer.Store(time.AfterFunc(d, func() { ex.hedge(q, l, d) }))
		}
	}
	return true, nil
}

// readOnly reports that running the leg twice leaves the store as one
// run would: MultiGet and range legs, and point legs whose ops are all
// Contains. Only these legs are hedged. A duplicated insert or delete
// applies twice, and whichever call loses the other's race answers as
// if a second client had got there first.
func (l *leg) readOnly() bool {
	switch l.kind {
	case workload.ReqMultiGet, workload.ReqRangeScan, workload.ReqRangeCount:
		return true
	case workload.ReqPoint:
		for _, op := range l.ops {
			if op.Kind != workload.OpContains {
				return false
			}
		}
		return true
	}
	return false
}

// hedge is the hedge delay firing: the leg's primary call has outlived
// the policy's quantile, so one speculative duplicate is offered to the
// same shard. The offer is best-effort and strictly bounded — refused
// without retry when the leg already settled, the shard is not Healthy,
// or the shard's request queue is full — because speculation against a
// shard that is struggling (rather than merely unlucky) would amplify
// exactly the load admission control exists to shed.
func (ex *Executor) hedge(q *shardQueue, l *leg, delay time.Duration) {
	if l.state.Load() != legPending || ex.Health(l.shard) != Healthy {
		return
	}
	c := &call{l: l, hedge: true}
	if !l.scan {
		c.out = make([]store.Result, len(l.ops))
	}
	ok, err := ex.submitCall(q, c)
	if !ok || err != nil {
		return // no room for speculative work
	}
	l.calls[1].Store(c)
	q.hedges.Add(1)
	units := uint64(len(l.ops))
	if units == 0 {
		units = 1 // a range leg weighs one unit
	}
	q.hedgeUnits.Add(units)
	ex.cfg.Recorder.Record(rec.KindHedge, l.shard, 0, uint64(len(l.ops)), uint64(delay), l.kind.String())
}

// overdue is the completion budget firing: the leg completes with a
// typed stall while its store calls keep running — the stalled gauge,
// not a blocked goroutine, tracks the pile until each call finally lands
// in finish. Calls still running are counted individually through their
// landing latch, so a call completing inside the race window is never
// double-counted.
func (ex *Executor) overdue(q *shardQueue, l *leg) {
	if l.fail(&ShardError{Shard: l.shard, Reason: ErrLegStalled}) {
		q.timeouts.Add(1)
	}
	for i := range l.calls {
		if c := l.calls[i].Load(); c != nil && c.state.CompareAndSwap(callRunning, callCounted) {
			q.stalled.Add(1)
		}
	}
}

// finish completes a call whose store hand-off returned: wholesale
// errors become the typed per-shard failure; a successful call applies
// its payload to the handle — but only after winning the leg's
// completion latch, so a call that lost (to the budget, or to the leg's
// other call) can never touch a handle whose merge stage (and caller)
// have already moved on. That losing path is the late-call discard:
// hedge losers are counted as wasted work there. finish runs on the
// shard worker that completed the call.
func (ex *Executor) finish(q *shardQueue, c *call, o legOut) {
	l := c.l
	if !c.state.CompareAndSwap(callRunning, callLanded) {
		// The budget counted this call into the stalled gauge; it has
		// landed now, so the shard's overdue pile drops.
		q.stalled.Add(-1)
	}
	if t := l.timer.Load(); t != nil {
		t.Stop()
	}
	if t := l.hedgeTimer.Load(); t != nil {
		t.Stop()
	}
	if o.err != nil {
		if l.fail(&ShardError{Shard: l.shard, Reason: o.err}) {
			q.legErrs.Add(1)
		}
		return
	}
	if !l.state.CompareAndSwap(legPending, legDone) {
		if l.state.Load() == legDone {
			// The leg's other call won the latch: this completion is the
			// hedge loser, discarded.
			q.hedgeWaste.Add(1)
		}
		if l.scan {
			store.RecycleScanKeys(o.keys)
		}
		return
	}
	if hp := ex.cfg.Hedge; hp != nil {
		// Only the call that settles the leg feeds the hedge policy: a
		// discarded loser's latency never reached the caller, and letting
		// it in would drag the tracked quantile up to the very fault
		// latency hedging exists to mask.
		hp.Observe(l.shard, time.Since(c.start))
	}
	if c.hedge {
		q.hedgeWins.Add(1)
	}
	if l.scan {
		l.h.mergeScan(o.keys, o.count)
		// mergeScan copies, so the shard's pooled key buffer goes back.
		store.RecycleScanKeys(o.keys)
	} else if c.out != nil {
		for i, r := range o.res {
			l.h.res.Results[l.idx[i]] = r
		}
	}
	l.h.complete()
}

// fail completes a leg with a typed per-shard error and reports whether
// it won the completion latch: the leg's point slots (if any) carry the
// error per key, and the handle's ShardErrs gain one entry.
func (l *leg) fail(serr *ShardError) bool {
	if !l.state.CompareAndSwap(legPending, legStalled) {
		return false
	}
	h := l.h
	for _, i := range l.idx {
		h.res.Results[i] = store.Result{Err: serr}
	}
	h.mu.Lock()
	h.res.ShardErrs = append(h.res.ShardErrs, *serr)
	h.mu.Unlock()
	h.complete()
	return true
}

// mergeScan folds one range leg's payload into the handle under its
// lock (scan legs from different shards complete concurrently).
func (h *Handle) mergeScan(keys []int64, count uint64) {
	h.mu.Lock()
	h.res.Keys = append(h.res.Keys, keys...)
	h.res.Count += count
	h.mu.Unlock()
}

// complete retires one leg; the goroutine that retires the last leg runs
// the merge stage.
func (h *Handle) complete() {
	if h.pending.Add(-1) != 0 {
		return
	}
	h.merge()
}

// merge is the fan-in stage: deterministic assembly of the legs'
// outcomes, independent of completion order. Point/multi results are
// position-aligned already; range payloads sort ascending (shards hold
// disjoint key sets and each shard's iterator emits a key at most once,
// so the sorted union needs no dedup) and trim to the request limit;
// ShardErrs sort by shard.
func (h *Handle) merge() {
	r := h.res
	if r.Kind == workload.ReqRangeScan {
		if len(r.Keys) > 1 {
			slices.Sort(r.Keys)
		}
		if h.limit > 0 && len(r.Keys) > h.limit {
			r.Keys = r.Keys[:h.limit]
		}
		r.Count = uint64(len(r.Keys))
	}
	if len(r.ShardErrs) > 1 {
		slices.SortFunc(r.ShardErrs, func(a, b ShardError) int { return cmp.Compare(a.Shard, b.Shard) })
	}
	r.Elapsed = time.Since(h.start)
	ex := h.ex
	ex.completed.Add(1)
	if r.Partial() {
		ex.partial.Add(1)
	}
	merged := uint64(len(r.Results))
	if r.Kind == workload.ReqRangeScan || r.Kind == workload.ReqRangeCount {
		merged = r.Count
	}
	ex.cfg.Recorder.Record(rec.KindExecMerge, -1, 0, merged, uint64(r.Elapsed), r.Kind.String())
	if h.cb != nil {
		h.cb(r)
	}
	close(h.done)
}

// Close stops the executor: new submissions fail with ErrClosed, queued
// legs drain through the pumps, dispatchers exit. Legs stalled past
// their budget have already completed their handles; their in-flight
// store requests are the store's to finish (their callbacks fire into
// settled latches). With the budget disabled, a pump retrying into a
// never-healing shard holds Close until the shard heals. Close does not
// close the store.
func (ex *Executor) Close() error {
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		return ErrClosed
	}
	ex.closed = true
	ex.mu.Unlock()
	for _, q := range ex.queues {
		close(q.legs)
	}
	ex.wg.Wait()
	return nil
}
