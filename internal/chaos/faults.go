package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ds"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workload"
)

// submit fires one batch and swallows routing errors: fault traffic must
// keep flowing (or quietly stop) when its target shard is itself under a
// churn fault, not crash the engine.
func submit(t *Target, ops []store.Op) {
	_, _ = t.Store.Do(ops)
}

// --- stall ---------------------------------------------------------------

// stallFault parks shard worker 0 mid-operation: the worker is stopped at
// a named execution point inside an operation bracket, so for epoch-style
// schemes the whole shard domain stops advancing while every other worker
// keeps retiring — the paper's reclamation-critical stall. The worker
// stays parked until heal.
type stallFault struct {
	shard int
	point string
}

func newStall(shard int) (Fault, error) {
	return &stallFault{shard: shard, point: ds.PointSearchHead}, nil
}

func (f *stallFault) Name() string { return "stall" }
func (f *stallFault) Shard() int   { return f.shard }

// park is one claimed-and-armed worker stall: the thread id it claimed,
// the stall to await the park on, and the release that heals it.
type park struct {
	tid     int
	stall   *sched.Stall
	release func()
}

// parkWorker claims a free worker thread on the shard's gate, arms its
// breakpoint, and — with probe — pumps single-op probes at the shard until
// that worker picks one up and parks; without probe the park waits for
// the next call traffic hands that worker. Claiming (ArmIfFree) rather than arming tid 0
// outright lets several stall-family faults coexist on one shard — each
// parks its own worker instead of silently replacing the other's
// breakpoint. The release disarms and unparks; it is safe to call even
// if the park never happened. Note parkWorker returns as soon as the
// breakpoint is armed — the park itself lands when worker traffic next
// hits it (await p.stall.Reached() to observe it).
func parkWorker(t *Target, shard int, point string, probe bool) (*park, error) {
	gate, err := t.Gate(shard)
	if err != nil {
		return nil, err
	}
	keys := t.KeysFor(shard, 1)
	if len(keys) == 0 {
		return nil, errors.New("chaos: no key routes to the target shard")
	}
	spec, err := t.Store.Spec(shard)
	if err != nil {
		return nil, err
	}
	var stall *sched.Stall
	tid := -1
	for w := 0; w < spec.Workers; w++ {
		if s, ok := gate.ArmIfFree(w, point, nil, 0); ok {
			stall, tid = s, w
			break
		}
	}
	if stall == nil {
		return nil, fmt.Errorf("chaos: all %d workers of shard %d already have armed breakpoints", spec.Workers, shard)
	}
	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for probe {
			select {
			case <-stall.Reached():
				return
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			// Each probe may itself be the op that parks, blocking its
			// Do until release — so probes fly on their own goroutines,
			// fire-and-forget. Release must NOT wait for them: a probe
			// can be held hostage by *another* fault's parked worker on
			// the same shard, and waiting would chain this fault's heal
			// to that one's. Probes drain once every park heals and the
			// store closes; a post-close probe fails fast in submit.
			go submit(t, []store.Op{{Kind: workload.OpContains, Key: keys[0]}})
		}
	}()
	var once sync.Once
	release := func() {
		once.Do(func() {
			// Disarm before Release: no *new* park can start, and a park
			// racing with the disarm falls through on the already-closed
			// release channel. DisarmStall (not Disarm) so a breakpoint
			// another fault armed on this tid after ours fired survives.
			gate.DisarmStall(tid, stall)
			stall.Release()
			close(stop)
			pump.Wait()
		})
	}
	return &park{tid: tid, stall: stall, release: release}, nil
}

func (f *stallFault) Inject(t *Target, intensity float64) (func(), error) {
	p, err := parkWorker(t, f.shard, f.point, true)
	if err != nil {
		return nil, err
	}
	return p.release, nil
}

// --- pulse ---------------------------------------------------------------

// pulseFault is stall without the probe: it arms a free worker of the
// shard and parks whichever client call that worker picks up next, until
// heal. On a short periodic schedule it is one slow call per episode on
// an otherwise healthy shard, with the shard's other workers free — the
// per-call bad luck hedged legs exist for.
type pulseFault struct{ shard int }

func newPulse(shard int) (Fault, error) { return &pulseFault{shard: shard}, nil }

func (f *pulseFault) Name() string { return "pulse" }
func (f *pulseFault) Shard() int   { return f.shard }

func (f *pulseFault) Inject(t *Target, intensity float64) (func(), error) {
	p, err := parkWorker(t, f.shard, ds.PointSearchHead, false)
	if err != nil {
		return nil, err
	}
	return p.release, nil
}

// --- slow-client ---------------------------------------------------------

// slowClientFault drips single-operation batches at a slow, steady rate —
// the classic slow consumer. It adds tail pressure without volume;
// intensity speeds the drip.
type slowClientFault struct{ shard int }

// dripInterval is the slow client's pause between operations at
// intensity 1.
const dripInterval = 2 * time.Millisecond

func newSlowClient(shard int) (Fault, error) { return &slowClientFault{shard: shard}, nil }

func (f *slowClientFault) Name() string { return "slow-client" }
func (f *slowClientFault) Shard() int   { return f.shard }

func (f *slowClientFault) Inject(t *Target, intensity float64) (func(), error) {
	interval := dripInterval
	if intensity > 1 {
		interval = time.Duration(float64(interval) / intensity)
	}
	keys := t.KeysFor(f.shard, 8)
	if len(keys) == 0 {
		return nil, errors.New("chaos: no key routes to the target shard")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				submit(t, []store.Op{{Kind: workload.OpContains, Key: keys[i%len(keys)]}})
			}
		}
	}()
	return func() { close(stop); wg.Wait() }, nil
}

// --- hotspot -------------------------------------------------------------

// hotspotFault aims sustained update-heavy traffic at one shard: every
// operation keys into the target shard's slice of the key space, so that
// shard saturates (queueing, retire churn) while its neighbours idle.
type hotspotFault struct{ shard int }

// hotKeys is the size of the hotspot's key set.
const hotKeys = 16

func newHotspot(shard int) (Fault, error) { return &hotspotFault{shard: shard}, nil }

func (f *hotspotFault) Name() string { return "hotspot" }
func (f *hotspotFault) Shard() int   { return f.shard }

func (f *hotspotFault) Inject(t *Target, intensity float64) (func(), error) {
	keys := t.KeysFor(f.shard, hotKeys)
	if len(keys) == 0 {
		return nil, errors.New("chaos: no key routes to the target shard")
	}
	blasters := 1
	if intensity > 1 {
		blasters = int(intensity)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for b := 0; b < blasters; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := workload.RNG(uint64(0xbeef + b))
			batch := make([]store.Op, 0, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch = batch[:0]
				for len(batch) < cap(batch) {
					key := keys[rng.Next()%uint64(len(keys))]
					kind := workload.OpInsert
					if rng.Next()%2 == 0 {
						kind = workload.OpDelete
					}
					batch = append(batch, store.Op{Kind: kind, Key: key})
				}
				submit(t, batch)
			}
		}(b)
	}
	return func() { close(stop); wg.Wait() }, nil
}

// --- churn ---------------------------------------------------------------

// churnFault closes the target shard mid-run and reopens it cold on heal:
// in-flight batches complete, new operations fail with ErrShardClosed,
// and the reopened shard serves from an empty structure (restart
// semantics — the backlog is gone, and so is the data).
type churnFault struct{ shard int }

func newChurn(shard int) (Fault, error) { return &churnFault{shard: shard}, nil }

func (f *churnFault) Name() string { return "churn" }
func (f *churnFault) Shard() int   { return f.shard }

func (f *churnFault) Inject(t *Target, intensity float64) (func(), error) {
	if err := t.Store.CloseShard(f.shard); err != nil {
		return nil, err
	}
	return func() {
		// Reopen can only fail if the whole store closed underneath us,
		// at which point there is nothing left to heal.
		_ = t.Store.ReopenShard(f.shard)
	}, nil
}

// --- delayed-release -----------------------------------------------------

// delayedReleaseFault is the storm variant of the stall: it parks a
// worker (delaying that thread's protection release) and, while the park
// holds, lands a burst of insert/delete pairs on the same shard — a
// retire storm arriving exactly when reclamation is least able to keep
// up. Robust schemes absorb it with a bounded bump; non-robust schemes
// convert the whole storm into backlog.
type delayedReleaseFault struct{ shard int }

// stormOps is the storm's operation count at intensity 1.
const stormOps = 256

func newDelayedRelease(shard int) (Fault, error) { return &delayedReleaseFault{shard: shard}, nil }

func (f *delayedReleaseFault) Name() string { return "delayed-release" }
func (f *delayedReleaseFault) Shard() int   { return f.shard }

func (f *delayedReleaseFault) Inject(t *Target, intensity float64) (func(), error) {
	p, err := parkWorker(t, f.shard, ds.PointSearchHead, true)
	if err != nil {
		return nil, err
	}
	storm := stormOps
	if intensity > 1 {
		storm = int(float64(storm) * intensity)
	}
	keys := t.KeysFor(f.shard, 16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Several senders: the batch the parked worker holds blocks its
	// sender until heal, and the rest of the storm must keep landing
	// through the shard's surviving workers.
	const senders = 3
	for c := 0; c < senders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := workload.RNG(uint64(0x5701 + c))
			batch := make([]store.Op, 0, 16)
			for sent := 0; sent < storm/senders; {
				select {
				case <-stop:
					return
				default:
				}
				batch = batch[:0]
				for len(batch) < cap(batch) && sent+len(batch) < storm/senders {
					key := keys[rng.Next()%uint64(len(keys))]
					batch = append(batch,
						store.Op{Kind: workload.OpInsert, Key: key},
						store.Op{Kind: workload.OpDelete, Key: key})
				}
				submit(t, batch)
				sent += len(batch)
			}
		}(c)
	}
	return func() {
		// Unpark before waiting: the storm goroutine may itself be
		// blocked on the batch the parked worker holds.
		close(stop)
		p.release()
		wg.Wait()
	}, nil
}
