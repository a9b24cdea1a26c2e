package michael_test

import (
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/drive"
	"repro/internal/ds/dstest"
	"repro/internal/ds/michael"
	"repro/internal/mem"
	"repro/internal/smr"
)

func TestSuite(t *testing.T) { dstest.RunSuite(t, "michael") }

// TestSortedInvariant checks ordering after heavy churn.
func TestSortedInvariant(t *testing.T) {
	env := dstest.NewEnv(t, "hp", 4, 1<<16, 2, mem.Reuse)
	l, err := michael.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dstest.AssertOrdered(t, l, dstest.Check(t, env, l, drive.Script{Ops: 2000, KeyRange: 64, Disjoint: true}))
	env.AssertSafe(t)
}

// TestRestartStorm: long-chain churn under EBR. A find that rewound to
// the head on every lost unlink could spin through millions of steps
// inside one epoch-pinning bracket, ballooning the retired backlog with
// no fault injected. Resuming from the validated pred must keep the
// worst op within a small multiple of the chain length and the backlog
// near the scan threshold.
func TestRestartStorm(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 4, 1<<16, 2, mem.Reuse)
	l, err := michael.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ops := 6000
	if testing.Short() {
		ops = 2000
	}
	dstest.RestartStormSet(t, env, l, 256, ops, 8192)
	env.AssertSafe(t)
}

// TestHPCompatibility pins the contrast with Harris's list (Section 6
// Discussion): Michael's list never traverses a retired node, so hazard
// pointers stay safe even in Unmap mode, where any access to reclaimed
// memory would be a simulated segfault.
func TestHPCompatibility(t *testing.T) {
	env := dstest.NewEnv(t, "hp", 4, 1<<16, 2, mem.Unmap)
	l, err := michael.New(env.S, ds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dstest.Check(t, env, l, drive.Script{Ops: 1500, KeyRange: 32, Disjoint: true})
	if f := env.A.Stats().Snapshot().Faults; f != 0 {
		t.Fatalf("HP on Michael's list took %d segfaults", f)
	}
	env.AssertSafe(t)
}

// TestGuardTrips: rollback storms end in typed guard errors — the
// operations' own retry loops are budgeted like find's — and a failed
// Insert does not leak its node.
func TestGuardTrips(t *testing.T) {
	env := dstest.NewEnv(t, "ebr", 1, 1<<10, 2, mem.Reuse)
	dstest.GuardTripSet(t, env, ds.WNext, func(s smr.Scheme) (ds.Set, error) { return michael.New(s, ds.Options{}) })
	env.AssertSafe(t)
}
