// Package dstest is the testing side of the structure tests: every
// concurrent check runs a drive.Script (the one seeded driver, package
// ds/drive) and asserts on its Result, and a failure prints the Script
// that replays its per-thread op sequences.
//
// Every check runs for each (scheme, structure) pair the paper classifies
// as applicable (registry.Applicable); the deterministic incompatibility
// demonstrations for the non-applicable pairs live in the core/adversary
// package instead.
package dstest

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/ds"
	"repro/internal/ds/drive"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/workload"
)

// Env bundles an arena and a scheme instance for one test.
type Env struct{ *drive.Env }

// NewEnv builds an arena and the named scheme over it. slots <= 0 selects a
// default heap size.
func NewEnv(tb testing.TB, scheme string, n, slots, payloadWords int, mode mem.ReclaimMode) *Env {
	tb.Helper()
	e, err := drive.NewEnv(scheme, n, slots, payloadWords, mode)
	if err != nil {
		tb.Fatal(err)
	}
	return &Env{e}
}

// AssertSafe fails the test if the run violated Definition 4.2 (see
// drive.Env.Safe).
func (e *Env) AssertSafe(tb testing.TB) {
	tb.Helper()
	if err := e.Safe(); err != nil {
		tb.Error(err)
	}
}

// Check runs s against target on env and fails tb unless every op
// completed and agreed with its thread's model, the run was safe, the
// recorded windows are linearizable and every check passes on the Result.
// A failure of a concurrent script on a cell registry.KnownRed lists is
// logged and skipped instead; a one-thread script has no interleaving, so
// its failure always fails. Either way the message prints the Script.
func Check(tb testing.TB, env *Env, target drive.Target, s drive.Script, checks ...func(drive.Result) error) drive.Result {
	tb.Helper()
	res, err := drive.Run(env.Env, target, s)
	safe := func(drive.Result) error { return env.Safe() }
	for _, c := range append([]func(drive.Result) error{safe, drive.Result.Linearizable}, checks...) {
		if err == nil {
			err = c(res)
		}
	}
	if err == nil {
		return res
	}
	scheme, structure := env.S.Name(), target.Name()
	if red, ok := registry.IsKnownRed(scheme, structure); ok && res.Script.Threads > 1 {
		tb.Skipf("known red %s × %s (%s, since %s): %v\n%v", scheme, structure, red.Symptom, red.Since, err, res.Script)
	}
	tb.Fatalf("%s × %s: %v\n%v", scheme, structure, err, res.Script)
	return res
}

// rebracketKeys is the iterators' per-bracket emission chunk: a scan over
// more live keys than this crosses a re-bracket (on the skip list, a
// re-seek).
const rebracketKeys = 512

// IterateSet verifies the ds.Iterator contract. newSet builds the
// structure over the scheme it is given (a rollback-injecting wrapper of
// env.S). ordered selects the globally-ascending checks.
//
//   - Quiescent fast path: after single-threaded churn, scans from
//     KeyMin, a present key, an absent key and a key above the maximum
//     report exactly the model's keys ≥ lo, each once, ascending on
//     ordered structures; an early-stopped scan stops.
//   - Rollbacks: the same scans while one protected read in
//     rollbackOneIn demands a rollback, so walks restart (and the skip
//     list re-seeks) mid-scan without skipping or repeating a key.
//   - Concurrent fallback: the prefilled keys are thread 0's share of a
//     disjoint script (drive.Script.Key); while threads 1..N-1 churn
//     keys between the lowest of them, thread 0's scans report no key
//     below lo and none twice, and every persistent key ≥ lo exactly once.
//
// keyRange must leave more than rebracketKeys keys after the prefill's
// random churn (about 58 % of keyRange), so every full scan re-brackets.
func IterateSet(tb testing.TB, env *Env, newSet func(smr.Scheme) (ds.Set, error), keyRange int, ordered bool) {
	tb.Helper()
	rs := &rollbackScheme{Scheme: env.S, failRead: -1}
	set, err := newSet(rs)
	if err != nil {
		tb.Fatal(err)
	}
	it, ok := set.(ds.Iterator)
	if !ok {
		tb.Fatalf("%s does not implement ds.Iterator", set.Name())
	}
	// The churners own keys below 100*N, the bottom of the prefill's
	// range; the scans start from KeyMin and from keys in that range.
	s := drive.Script{Threads: env.N, Ops: 500, KeyRange: 100, Mix: workload.MixUpdateOnly, Disjoint: true, Iterate: 8}
	model := make(map[int64]bool)
	r := workload.RNG(77)
	for i := 0; i < keyRange*2; i++ {
		key := s.Key(0, r.Intn(keyRange))
		if r.Intn(3) != 0 {
			if _, err := set.Insert(0, key); err != nil {
				tb.Fatalf("prefill insert(%d): %v", key, err)
			}
			model[key] = true
		} else {
			if _, err := set.Delete(0, key); err != nil {
				tb.Fatalf("prefill delete(%d): %v", key, err)
			}
			delete(model, key)
		}
	}
	if len(model) <= rebracketKeys {
		tb.Fatalf("prefill left %d keys; a full scan must cross the %d-key re-bracket", len(model), rebracketKeys)
	}
	sorted := make([]int64, 0, len(model))
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	absent := sorted[len(sorted)/2] + 1
	for model[absent] {
		absent++
	}
	los := []int64{ds.KeyMin, sorted[len(sorted)/3], absent, sorted[len(sorted)-1] + 1}
	for _, lo := range los {
		iterateQuiescent(tb, it, sorted, lo, ordered, "quiescent")
	}
	visited := 0
	if err := it.Iterate(0, func(int64) bool { visited++; return false }); err != nil {
		tb.Fatalf("early-stopped iterate: %v", err)
	}
	if visited != 1 {
		tb.Errorf("early-stopped iterate visited %d keys, want 1", visited)
	}

	flaky := workload.RNG(99)
	rs.flaky = &flaky
	for _, lo := range los {
		iterateQuiescent(tb, it, sorted, lo, ordered, "rolled-back")
	}
	rs.flaky = nil
	if env.N < 2 {
		return
	}
	Check(tb, env, set, s, func(res drive.Result) error {
		for _, sc := range res.Scans {
			seen := make(map[int64]bool)
			for i, k := range sc.Keys {
				switch {
				case k < sc.Lo:
					return fmt.Errorf("scan from %d reported %d, below the bound, under mutation", sc.Lo, k)
				case seen[k]:
					return fmt.Errorf("scan from %d reported %d twice under mutation", sc.Lo, k)
				case ordered && i > 0 && k < sc.Keys[i-1]:
					return fmt.Errorf("scan from %d emitted %d after %d under mutation", sc.Lo, k, sc.Keys[i-1])
				}
				seen[k] = true
			}
			for k := range model {
				if k >= sc.Lo && !seen[k] {
					return fmt.Errorf("scan from %d missed persistent key %d under mutation", sc.Lo, k)
				}
			}
		}
		return nil
	})
}

// iterateQuiescent checks one scan from lo on a quiescent structure
// against the sorted model: exactly the keys ≥ lo, each once, ascending
// when ordered; on ordered structures an early stop after the first key
// yields the smallest key ≥ lo.
func iterateQuiescent(tb testing.TB, it ds.Iterator, sorted []int64, lo int64, ordered bool, what string) {
	tb.Helper()
	want := sorted[sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo }):]
	var got []int64
	if err := it.IterateFrom(0, lo, func(k int64) bool { got = append(got, k); return true }); err != nil {
		tb.Fatalf("%s scan from %d: %v", what, lo, err)
	}
	if !ordered {
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if len(got) != len(want) {
		tb.Fatalf("%s scan from %d: %d keys, want the model's %d", what, lo, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			tb.Fatalf("%s scan from %d: key #%d is %d, want %d", what, lo, i, got[i], want[i])
		}
	}
	if !ordered || len(want) == 0 {
		return
	}
	var first []int64
	if err := it.IterateFrom(0, lo, func(k int64) bool { first = append(first, k); return false }); err != nil {
		tb.Fatalf("%s early-stopped scan from %d: %v", what, lo, err)
	}
	if len(first) != 1 || first[0] != want[0] {
		tb.Errorf("%s early-stopped scan from %d reported %v, want [%d]", what, lo, first, want[0])
	}
}

// RestartStormSet drives a restart storm: a chain of live keys, every
// thread inserting, deleting and (half its ops) searching shared keys,
// so unlink contention lands on long traversal paths. A find that
// rewound to the head on every lost unlink could burn toward the maxSteps
// guard (~millions of steps) inside a single epoch-pinning bracket; finds
// that resume from their validated predecessor must keep the worst
// operation within a small multiple of the chain length, with no guard
// trip. backlogBudget, when non-zero, also bounds the heap's peak retired
// backlog (the EBR symptom of the storm: a pinned epoch balloons the
// backlog with no fault injected).
func RestartStormSet(tb testing.TB, env *Env, set ds.Set, chain, opsPerThread int, backlogBudget uint64) {
	tb.Helper()
	tr, ok := set.(ds.TravReporter)
	if !ok {
		tb.Fatalf("%s does not expose traversal counters", set.Name())
	}
	for k := 0; k < chain; k++ {
		if _, err := set.Insert(0, int64(k)); err != nil {
			tb.Fatalf("prefill insert(%d): %v", k, err)
		}
	}
	// Shared (not disjoint) keys: colliding unlink CASes on the same
	// marked nodes are what force restarts.
	s := drive.Script{Ops: opsPerThread, KeyRange: chain, Mix: workload.MixBalanced, Seed: 555}
	Check(tb, env, set, s, func(res drive.Result) error {
		tv := tr.TravSnapshot()
		if tv.GuardTrips != 0 {
			return fmt.Errorf("%d traversal guard trips under churn", tv.GuardTrips)
		}
		if bound := uint64(64 * chain); tv.MaxOpSteps > bound {
			return fmt.Errorf("worst single-op traversal took %d steps, want <= %d (chain %d): restart storm",
				tv.MaxOpSteps, bound, chain)
		}
		if backlogBudget != 0 && res.Arena.MaxRetired > backlogBudget {
			return fmt.Errorf("peak retired backlog %d exceeds budget %d with no fault injected", res.Arena.MaxRetired, backlogBudget)
		}
		return nil
	})
}
