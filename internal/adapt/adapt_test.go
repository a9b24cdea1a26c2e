package adapt_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/ds"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestNewValidatesLadder checks the Props-sheet cost-model guardrails:
// unknown rungs, robustness inversions, duplicates, and trivial ladders
// are all construction errors.
func TestNewValidatesLadder(t *testing.T) {
	st, err := store.New(store.Config{
		Shards: store.Uniform(1, store.ShardSpec{Scheme: "ebr", Structure: "michael"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mon := telemetry.NewMonitor(nil, nil)
	bad := [][]string{
		{"ebr", "nope", "hp"}, // unknown rung
		{"hp", "ebr"},         // robustness inversion: robust before not-robust
		{"ebr", "ibr", "ebr"}, // duplicate rung
		{"ebr"},               // nothing to climb
	}
	for _, ladder := range bad {
		if _, err := adapt.New(adapt.Config{Ladder: ladder}, st, mon); err == nil {
			t.Errorf("ladder %v accepted", ladder)
		}
	}
	if _, err := adapt.New(adapt.Config{}, st, mon); err != nil {
		t.Fatalf("default ladder rejected: %v", err)
	}
	// A shard whose structure rejects part of the ladder (harris cannot
	// take ibr/hp, Appendix E) does not fail construction — it is left
	// unmanaged instead of discovering the incompatibility one failed
	// migration at a time.
	hst, err := store.New(store.Config{
		Shards: store.Uniform(1, store.ShardSpec{Scheme: "ebr", Structure: "harris"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hst.Close()
	if _, err := adapt.New(adapt.Config{}, hst, mon); err != nil {
		t.Fatalf("ladder over an inapplicable structure must leave the shard unmanaged, got: %v", err)
	}
}

// TestControllerEscalatesUnderStall closes the loop end to end: a parked
// worker pins the EBR shard's epoch, client churn turns every delete
// into backlog, the monitor's live window audits not-robust, and the
// controller must migrate the shard up the ladder to ibr — all while
// traffic keeps flowing.
func TestControllerEscalatesUnderStall(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive escalation needs a real traffic window")
	}
	const keyRange = 256
	bp := sched.NewBreakpoints()
	st, err := store.New(store.Config{
		// The heap must outlast the monitor's first not-robust window: the
		// churn below retires at memory speed, and the default heap
		// (about 4 700 slots) runs dry in ~10 ms, so the controller would
		// see the OOM branch, not the audit this test is about.
		Shards: []store.ShardSpec{{
			Scheme: "ebr", Structure: "michael", Workers: 2, Threshold: 16, Gate: bp, Slots: 1 << 16,
		}},
		KeyRange:     keyRange,
		MigrateGrace: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for k := int64(0); k < keyRange/2; k++ {
		if _, err := st.Insert(k); err != nil {
			t.Fatal(err)
		}
	}

	budget := telemetry.Budget{Threads: 2, Threshold: 16}
	mon := telemetry.NewMonitor(nil, []telemetry.Domain{
		{Scheme: "ebr", Declared: smr.NotRobust, Budget: budget},
	})
	sampler := telemetry.NewSampler(
		telemetry.Config{Interval: time.Millisecond, Capacity: 4096, OnSample: mon.Observe},
		func() []telemetry.Point {
			gs := st.Gauges()
			pts := make([]telemetry.Point, len(gs))
			for i, g := range gs {
				pts[i] = telemetry.Point{Ops: g.Ops, Retired: g.Retired,
					MaxRetired: g.MaxRetired, Active: g.Active, MaxActive: g.MaxActive}
			}
			return pts
		})
	ctl, err := adapt.New(adapt.Config{Interval: 5 * time.Millisecond}, st, mon)
	if err != nil {
		t.Fatal(err)
	}

	// Park worker 0 mid-operation (the reclamation-critical stall), then
	// churn updates through the surviving worker so the pinned epoch
	// converts deletes into backlog.
	stall := bp.Arm(0, ds.PointSearchHead, nil, 0)
	var aux sync.WaitGroup
	stop := make(chan struct{})
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stall.Reached():
				return
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			aux.Add(1)
			go func() {
				defer aux.Done()
				_, _ = st.Do([]store.Op{{Kind: workload.OpContains, Key: 0}})
			}()
		}
	}()
	<-stall.Reached()
	aux.Add(1)
	go func() {
		defer aux.Done()
		rng := workload.RNG(11)
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]store.Op, 0, 16)
			for len(batch) < cap(batch) {
				k := int64(rng.Next() % keyRange)
				batch = append(batch,
					store.Op{Kind: workload.OpInsert, Key: k},
					store.Op{Kind: workload.OpDelete, Key: k})
			}
			_, _ = st.Do(batch)
		}
	}()

	sampler.Start()
	ctl.Start()
	deadline := time.Now().Add(20 * time.Second)
	var eps []adapt.Episode
	for time.Now().Before(deadline) {
		if eps = ctl.Episodes(); len(eps) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctl.Stop()
	sampler.Stop()
	stall.Release()
	close(stop)
	aux.Wait()

	if len(eps) == 0 {
		t.Fatal("controller never escalated the stalled ebr shard")
	}
	ep := eps[0]
	if ep.Shard != 0 || ep.From != "ebr" || ep.To != "ibr" || ep.Err != "" {
		t.Fatalf("first episode = %+v, want shard 0 ebr→ibr", ep)
	}
	if ep.Audited != "not-robust" {
		t.Fatalf("episode evidence = %q, want not-robust", ep.Audited)
	}
	s := st.Stats()
	if s.Shards[0].Scheme != "ibr" || s.Shards[0].Migrations == 0 {
		t.Fatalf("shard after escalation: %+v", s.Shards[0])
	}
	// The store must still be serving on the migrated shard.
	res, err := st.Do([]store.Op{{Kind: workload.OpContains, Key: 1}})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		t.Fatalf("post-escalation op: %v", err)
	}
}
