// Package resil is the resilience policy layer between callers and the
// scatter-gather executor: the subsystem that turns the executor's typed
// partial failures into recovered requests, and bounds how much recovery
// itself may cost.
//
// The paper's robustness classes bound *memory* under delayed threads;
// the production counterpart this layer supplies is bounding *request
// outcomes* under the same faults. Three policies compose per request:
//
//   - Typed-error-aware retries. Only legs that failed for a transient,
//     shard-side reason — shed by admission control (exec.ErrShed),
//     stalled past the leg budget (exec.ErrLegStalled), or landing on a
//     closed/migrating shard (store.ErrShardClosed) — are retried, and
//     only the failed keys are re-submitted; results already merged are
//     never re-executed. A write is retried only when its leg never ran
//     (exec.ShardError.NotExecuted): a stalled write's call still
//     applies. Backoff is exponential with deterministic
//     per-request jitter, capped by a per-request attempt limit and a
//     store-wide retry *budget* (token bucket denominated in operation
//     units), so a retry storm cannot amplify a degraded shard's load.
//
//   - Hedged legs. The client installs a p99-tracking hedge policy
//     (hist.Latency quantile, not a constant) into the executor, which
//     launches one speculative duplicate call for a leg that outlives
//     the delay; first completion wins, the loser is discarded through
//     the executor's late-call discard path and counted as wasted work.
//
//   - Per-shard circuit breakers. A recent-failure EWMA trips the
//     shard's exec.Health word to Open; after openFor it moves to
//     Probing, where a bounded number of probe requests decide between
//     Healthy and Open again. While a shard is Open, Probing without a
//     probe grant, or Degraded by its verdict, its keys fail fast with
//     ErrBreakerOpen before touching the executor; the executor's own
//     admission reads the same word, so range legs queue-or-shed instead
//     of blocking. A verdict-degraded shard admits again as soon as the
//     verdict clears.
//
// The package deliberately does not import internal/obs: the
// observability plane imports *it* to render era_resil_* metric
// families, and the flight recorder (internal/obs/rec) is dependency-
// free, so breaker transitions, retries and hedges stamp the same
// shared tape as every other subsystem.
package resil

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs/rec"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ErrBreakerOpen reports a key refused locally because its shard's
// circuit breaker is open. It reaches callers wrapped in an
// exec.ShardError (and, after exhausted retries, a RetryError), so
// errors.Is matches it through the chain.
var ErrBreakerOpen = errors.New("resil: circuit breaker open")

// RetryError wraps a shard's final error after the retry policy gave up
// on it: how many attempts the request made, and the last typed failure.
// It unwraps to the underlying error, so errors.Is/errors.As chains that
// match exec.ShardError, exec.ErrShed, exec.ErrLegStalled,
// store.ErrShardClosed or ErrBreakerOpen keep matching through it.
type RetryError struct {
	Attempts int
	Err      error
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("resil: gave up after %d attempts: %v", e.Attempts, e.Err)
}

func (e *RetryError) Unwrap() error { return e.Err }

// retryable reports whether err is a transient, shard-side failure the
// retry policy may re-submit. A write is re-submitted only if its leg
// never ran (a stalled leg's call still applies, so a retry would apply
// it twice). Guard trips, unknown errors and executor shutdown are
// terminal.
func retryable(err error, write bool) bool {
	if write {
		var serr *exec.ShardError
		if !errors.As(err, &serr) || !serr.NotExecuted {
			return false
		}
	}
	return errors.Is(err, exec.ErrShed) ||
		errors.Is(err, exec.ErrLegStalled) ||
		errors.Is(err, store.ErrShardClosed) ||
		errors.Is(err, ErrBreakerOpen)
}

// Config assembles a Client. The zero value selects usable defaults for
// every knob; the policy booleans (Hedge, Breaker) and MaxAttempts
// choose which policies are active.
type Config struct {
	// MaxAttempts caps a request's total executor submissions (first
	// attempt included); 0 selects 3, 1 disables retries.
	MaxAttempts int
	// RetryBase and RetryCap shape the exponential backoff between
	// attempts: base·2^(retry-1), capped, with deterministic per-request
	// jitter in [d/2, d). 0 selects 500µs and 8ms.
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetryBudget is the store-wide retry token fill rate: tokens granted
	// per *offered* operation unit (a key, or one shard of a range
	// fan-out), spent per re-submitted unit. It bounds retry load
	// amplification to 1+RetryBudget of offered load (plus BudgetBurst).
	// 0 selects 0.25; negative disables retries entirely.
	RetryBudget float64
	// BudgetBurst is the token bucket's capacity in units; 0 selects 256.
	BudgetBurst int
	// Seed derives each request's jitter stream; requests are numbered
	// internally, so one seed yields one deterministic schedule.
	Seed uint64

	// Hedge enables hedged legs through the executor, delayed by the p99
	// of settled call latencies (at least 200µs), refreshed every 64
	// landed calls; hedging stays disabled until the first refresh (cold
	// start).
	Hedge bool

	// Breaker enables per-shard circuit breakers (breaker.go); the
	// verdict they fast-fail on is the executor's (exec.Config.Verdicts).
	Breaker bool

	// Clock and Recorder stamp retry events onto the observability
	// plane's shared tape; breaker moves land on the executor's. Nil keeps
	// the layer silent.
	Clock    *rec.Clock
	Recorder *rec.Recorder
}

func (cfg *Config) fill() {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 500 * time.Microsecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 8 * time.Millisecond
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 0.25
	}
	if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	}
	if cfg.BudgetBurst <= 0 {
		cfg.BudgetBurst = 256
	}
}

// Client is the resilience layer over one executor. All methods are safe
// for concurrent use; Do blocks the calling goroutine through retries,
// so pipelined callers run one goroutine (or semaphore slot) per
// in-flight request.
type Client struct {
	st  *store.Store
	ex  *exec.Executor
	cfg Config

	hp       *hedgePolicy
	breakers []breaker
	bud      budget

	seq             atomic.Uint64
	requests        atomic.Uint64
	attempts        atomic.Uint64
	retries         atomic.Uint64
	recovered       atomic.Uint64
	budgetExhausted atomic.Uint64
	fastFails       atomic.Uint64
	offeredUnits    atomic.Uint64
	attemptUnits    atomic.Uint64
	retriesByShard  []atomic.Uint64
}

// New builds a resilience client over st: it wires the hedge policy into
// execCfg and starts the executor, whose per-shard health the breakers
// move and read. Close stops the executor.
func New(st *store.Store, execCfg exec.Config, cfg Config) (*Client, error) {
	if st == nil {
		return nil, errors.New("resil: client needs a store")
	}
	cfg.fill()
	c := &Client{st: st, cfg: cfg}
	c.bud.fill = cfg.RetryBudget
	if cfg.RetryBudget > 0 {
		c.bud.cap = float64(cfg.BudgetBurst)
		c.bud.tokens = c.bud.cap
	}
	c.retriesByShard = make([]atomic.Uint64, st.Shards())
	if cfg.Hedge {
		c.hp = &hedgePolicy{}
		execCfg.Hedge = c.hp
	}
	if cfg.Breaker {
		c.breakers = make([]breaker, st.Shards())
	}
	ex, err := exec.New(st, execCfg)
	if err != nil {
		return nil, err
	}
	c.ex = ex
	return c, nil
}

// Executor returns the executor the client drives (for un-resilient
// traffic and stats).
func (c *Client) Executor() *exec.Executor { return c.ex }

// Close closes the executor; closing twice is a no-op.
func (c *Client) Close() error {
	if err := c.ex.Close(); !errors.Is(err, exec.ErrClosed) {
		return err
	}
	return nil
}

// reqUnits weighs a request for the retry budget and the amplification
// ledger: one unit per key, or one per shard of a range fan-out.
func (c *Client) reqUnits(req workload.Req) uint64 {
	switch req.Kind {
	case workload.ReqRangeScan, workload.ReqRangeCount:
		return uint64(c.st.Shards())
	default:
		return uint64(len(req.Keys))
	}
}

// backoff sleeps the exponential, jittered delay before retry number
// rn (1-based). The jitter draws from the request's own deterministic
// stream: half-to-full of the exponential step.
func (c *Client) backoff(rn int, rng *workload.RNG) {
	d := c.cfg.RetryBase << uint(rn-1)
	if d > c.cfg.RetryCap || d <= 0 {
		d = c.cfg.RetryCap
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(rng.Next()%uint64(half))
	}
	time.Sleep(d)
}

// Do executes one request under the client's policies and returns its
// merged result. The call blocks through retries and backoff; the
// returned error is reserved for terminal submission failures
// (exec.ErrClosed, malformed requests) — per-shard failures surface
// inside the Result as typed ShardErrs, wrapped in RetryError once the
// retry policy has given up on them.
func (c *Client) Do(req workload.Req) (*exec.Result, error) {
	id := c.seq.Add(1)
	rng := workload.RNG(c.cfg.Seed ^ (id * 0x9e3779b97f4a7c15))
	c.requests.Add(1)
	c.offeredUnits.Add(c.reqUnits(req))
	c.bud.earn(float64(c.reqUnits(req)))
	switch req.Kind {
	case workload.ReqRangeScan, workload.ReqRangeCount:
		return c.doRange(req, &rng)
	default:
		return c.doKeyed(req, &rng)
	}
}

// doKeyed runs a point/multi request: failed keys — and only failed
// keys — are re-submitted on retry, and recovered results merge back
// into the master result at their original positions.
func (c *Client) doKeyed(req workload.Req, rng *workload.RNG) (*exec.Result, error) {
	start := time.Now()
	master := &exec.Result{Kind: req.Kind, Results: make([]store.Result, len(req.Keys))}
	// failing tracks the currently-failing shards; pending the master
	// positions still awaiting a clean result.
	failing := map[int]exec.ShardError{}
	pending := make([]int, len(req.Keys))
	for i := range pending {
		pending[i] = i
	}
	attempt := 0
	for len(pending) > 0 {
		attempt++
		sub, blocked, probes := c.buildAttempt(req, pending)
		for s := range blocked.shards {
			failing[s] = exec.ShardError{Shard: s, Reason: ErrBreakerOpen, NotExecuted: true}
		}
		for _, i := range blocked.pos {
			master.Results[i] = store.Result{Err: &exec.ShardError{Shard: c.st.ShardFor(req.Keys[i]), Reason: ErrBreakerOpen, NotExecuted: true}}
		}
		c.fastFails.Add(uint64(len(blocked.pos)))
		if len(sub.pos) > 0 {
			h, err := c.ex.Submit(sub.req())
			if err != nil {
				return nil, err
			}
			res := h.Wait()
			c.attempts.Add(1)
			c.attemptUnits.Add(uint64(len(sub.pos)))
			// Merge this attempt's outcomes into the master positions.
			for j, i := range sub.pos {
				master.Results[i] = res.Results[j]
			}
			errShards := map[int]exec.ShardError{}
			for _, serr := range res.ShardErrs {
				errShards[serr.Shard] = serr
			}
			for s := range sub.shards {
				serr, failed := errShards[s]
				if failed {
					failing[s] = serr
				} else {
					delete(failing, s)
				}
				c.observeBreaker(s, !failed, probes[s])
			}
		}
		// Decide what (if anything) to retry.
		next := pending[:0]
		for _, i := range pending {
			if err := master.Results[i].Err; err != nil && retryable(err, writes(req, i)) {
				next = append(next, i)
			}
		}
		pending = next
		if len(pending) == 0 || attempt >= c.cfg.MaxAttempts {
			break
		}
		if !c.bud.take(float64(len(pending))) {
			c.budgetExhausted.Add(1)
			break
		}
		c.retries.Add(1)
		for _, i := range pending {
			c.retriesByShard[c.st.ShardFor(req.Keys[i])].Add(1)
		}
		c.cfg.Recorder.Record(rec.KindRetry, -1, 0, uint64(attempt), uint64(len(pending)), req.Kind.String())
		c.backoff(attempt, rng)
	}
	c.finalizeKeyed(master, failing, attempt, len(pending) == 0)
	master.Elapsed = time.Since(start)
	return master, nil
}

// finalizeKeyed assembles the master result's ShardErrs from the
// still-failing shards, wrapping each reason in a RetryError when the
// request burned retries on it, and counts a recovery when a retried
// request ended clean.
func (c *Client) finalizeKeyed(master *exec.Result, failing map[int]exec.ShardError, attempts int, clean bool) {
	if attempts > 1 && clean && len(failing) == 0 {
		c.recovered.Add(1)
	}
	if len(failing) == 0 {
		return
	}
	wrapped := map[int]*exec.ShardError{}
	for s, serr := range failing {
		out := serr
		if attempts > 1 {
			out.Reason = &RetryError{Attempts: attempts, Err: serr.Reason}
		}
		wrapped[s] = &out
		master.ShardErrs = append(master.ShardErrs, out)
	}
	slices.SortFunc(master.ShardErrs, func(a, b exec.ShardError) int {
		return cmp.Compare(a.Shard, b.Shard)
	})
	// Point slots carrying a stale per-attempt error get the final
	// wrapped one, so result slots and ShardErrs tell the same story.
	for i, r := range master.Results {
		if r.Err == nil {
			continue
		}
		var serr *exec.ShardError
		if errors.As(r.Err, &serr) {
			if w, ok := wrapped[serr.Shard]; ok {
				master.Results[i] = store.Result{Err: w}
			}
		}
	}
}

// doRange runs a range request: a shard-partial scan cannot splice
// per-shard payloads across attempts (the merged Keys are already
// sorted and trimmed), so retries re-submit the whole fan-out and the
// last attempt's result wins.
func (c *Client) doRange(req workload.Req, rng *workload.RNG) (*exec.Result, error) {
	start := time.Now()
	var last *exec.Result
	units := float64(c.st.Shards())
	attempt := 0
	for {
		attempt++
		h, err := c.ex.Submit(req)
		if err != nil {
			return nil, err
		}
		last = h.Wait()
		c.attempts.Add(1)
		c.attemptUnits.Add(uint64(units))
		errShards := map[int]bool{}
		retry := false
		for _, serr := range last.ShardErrs {
			errShards[serr.Shard] = true
			if retryable(serr.Reason, false) {
				retry = true
			}
		}
		for s := 0; s < c.st.Shards(); s++ {
			c.observeBreaker(s, !errShards[s], false)
		}
		if !retry || attempt >= c.cfg.MaxAttempts {
			break
		}
		if !c.bud.take(units) {
			c.budgetExhausted.Add(1)
			break
		}
		c.retries.Add(1)
		for s := range errShards {
			c.retriesByShard[s].Add(1)
		}
		c.cfg.Recorder.Record(rec.KindRetry, -1, 0, uint64(attempt), uint64(len(errShards)), req.Kind.String())
		c.backoff(attempt, rng)
	}
	if attempt > 1 {
		if len(last.ShardErrs) == 0 {
			c.recovered.Add(1)
		}
		for i := range last.ShardErrs {
			last.ShardErrs[i].Reason = &RetryError{Attempts: attempt, Err: last.ShardErrs[i].Reason}
		}
	}
	last.Elapsed = time.Since(start)
	return last, nil
}

// writes reports that key i of req is an insert or delete: retrying it is
// safe only if its leg never ran.
func writes(req workload.Req, i int) bool {
	switch req.Kind {
	case workload.ReqMultiInsert, workload.ReqMultiDelete:
		return true
	case workload.ReqPoint:
		return req.Ops[i] != workload.OpContains
	}
	return false
}

// subRequest is one attempt's submitted subset of a keyed request: the
// master positions it carries and the shards it touches.
type subRequest struct {
	kind   workload.ReqKind
	pos    []int
	keys   []int64
	ops    []workload.Op
	shards map[int]bool
}

func (s *subRequest) req() workload.Req {
	return workload.Req{Kind: s.kind, Keys: s.keys, Ops: s.ops}
}

// blockedSet is the attempt's breaker-refused complement.
type blockedSet struct {
	shards map[int]bool
	pos    []int
}

// buildAttempt partitions the pending master positions by breaker
// admission: keys on shards that admit (or grant a probe to) this
// attempt go into the sub-request; the rest are blocked for local
// fast-failure. probes marks the shards whose admission was a probe
// grant, so the outcome feeds the probe ledger rather than the EWMA
// alone.
func (c *Client) buildAttempt(req workload.Req, pending []int) (subRequest, blockedSet, map[int]bool) {
	sub := subRequest{kind: req.Kind, shards: map[int]bool{}}
	blocked := blockedSet{shards: map[int]bool{}}
	probes := map[int]bool{}
	decided := map[int]bool{}
	for _, i := range pending {
		s := c.st.ShardFor(req.Keys[i])
		if _, ok := decided[s]; !ok {
			admit, probe := c.allowShard(s)
			decided[s] = admit
			if probe {
				probes[s] = true
			}
		}
		if !decided[s] {
			blocked.shards[s] = true
			blocked.pos = append(blocked.pos, i)
			continue
		}
		sub.shards[s] = true
		sub.pos = append(sub.pos, i)
		sub.keys = append(sub.keys, req.Keys[i])
		if req.Kind == workload.ReqPoint {
			sub.ops = append(sub.ops, req.Ops[i])
		}
	}
	return sub, blocked, probes
}

// budget is the store-wide retry token bucket, denominated in operation
// units. Offered traffic earns fill·units; retries spend their own
// units, so retry load is bounded to fill·offered + burst regardless of
// how hard the fault surface pushes back.
type budget struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	fill   float64
}

func (b *budget) earn(units float64) {
	if b.fill == 0 {
		return
	}
	b.mu.Lock()
	b.tokens += units * b.fill
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.mu.Unlock()
}

func (b *budget) take(units float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < units {
		return false
	}
	b.tokens -= units
	return true
}

// Stats is a point-in-time snapshot of the client's resilience ledger,
// the executor's hedge counters folded in.
type Stats struct {
	// Requests counts Do calls; Attempts executor submissions (retries
	// included); Retries backoff-and-resubmit rounds; Recovered requests
	// that ended clean after at least one retry.
	Requests  uint64 `json:"requests"`
	Attempts  uint64 `json:"attempts"`
	Retries   uint64 `json:"retries"`
	Recovered uint64 `json:"recovered"`
	// BudgetExhausted counts retry rounds refused by the token bucket;
	// FastFails keys refused locally by the breaker.
	BudgetExhausted uint64 `json:"budget_exhausted"`
	FastFails       uint64 `json:"fast_fails"`
	// OfferedUnits and AttemptUnits are the amplification ledger:
	// operation units offered by callers vs dispatched to the store
	// (retries and hedges included). Their ratio is the load
	// amplification the retry budget bounds.
	OfferedUnits uint64 `json:"offered_units"`
	AttemptUnits uint64 `json:"attempt_units"`
	// Hedges, HedgeWins and HedgeWaste mirror the executor's hedging
	// ledger (wasted work = discarded hedge-race completions);
	// HedgeUnits is the same load weighted in operation units for the
	// amplification ratio.
	Hedges     uint64 `json:"hedges"`
	HedgeWins  uint64 `json:"hedge_wins"`
	HedgeWaste uint64 `json:"hedge_waste"`
	HedgeUnits uint64 `json:"hedge_units"`
	// HedgeDelay is the hedge policy's current delay (0 = cold/disabled).
	HedgeDelay time.Duration `json:"hedge_delay_ns"`
	// Breakers holds one entry per shard when breakers are enabled.
	Breakers []BreakerStats `json:"breakers,omitempty"`
}

// Amplification returns dispatched-over-offered operation units —
// retries and hedges included — (1.0 when nothing was ever retried or
// hedged; 0 before any traffic).
func (s Stats) Amplification() float64 {
	if s.OfferedUnits == 0 {
		return 0
	}
	return float64(s.AttemptUnits+s.HedgeUnits) / float64(s.OfferedUnits)
}

// Stats snapshots the client's ledger. Safe under load; counters are
// read individually.
func (c *Client) Stats() Stats {
	es := c.ex.Stats()
	st := Stats{
		Requests:        c.requests.Load(),
		Attempts:        c.attempts.Load(),
		Retries:         c.retries.Load(),
		Recovered:       c.recovered.Load(),
		BudgetExhausted: c.budgetExhausted.Load(),
		FastFails:       c.fastFails.Load(),
		OfferedUnits:    c.offeredUnits.Load(),
		AttemptUnits:    c.attemptUnits.Load(),
		Hedges:          es.Hedges,
		HedgeWins:       es.HedgeWins,
		HedgeWaste:      es.HedgeWaste,
		HedgeUnits:      es.HedgeUnits,
	}
	if c.hp != nil {
		st.HedgeDelay = time.Duration(c.hp.delay.Load())
	}
	for s := range c.breakers {
		st.Breakers = append(st.Breakers, c.breakerStats(s))
	}
	return st
}

// RetriesByShard returns the per-shard retry-leg counter (shards whose
// failed legs a retry round re-submitted).
func (c *Client) RetriesByShard() []uint64 {
	out := make([]uint64, len(c.retriesByShard))
	for i := range c.retriesByShard {
		out[i] = c.retriesByShard[i].Load()
	}
	return out
}

// AugmentProbe wraps a telemetry probe (typically the store-gauges
// probe) so every domain's point also carries the shard's resilience
// counters — sheds, retries, hedges, health — making
// resilience activity itself, not just its symptoms, visible to the
// Monitor and the timeline join.
func (c *Client) AugmentProbe(p telemetry.Probe) telemetry.Probe {
	return func() []telemetry.Point {
		pts := p()
		es := c.ex.Stats()
		retries := c.RetriesByShard()
		for s := range pts {
			if s < len(es.Shards) {
				pts[s].Sheds = es.Shards[s].Sheds
				pts[s].Hedges = es.Shards[s].Hedges
				pts[s].Health = uint8(es.Shards[s].Health)
			}
			if s < len(retries) {
				pts[s].Retries = retries[s]
			}
		}
		return pts
	}
}
