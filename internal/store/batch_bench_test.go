package store_test

import (
	"testing"

	"repro/internal/store"
	"repro/internal/workload"
)

// benchStore builds a warmed single-shard store and a contains-only
// batch for the steady-state spine benchmarks.
func benchStore(b *testing.B, batch int) (*store.Store, []store.Op, []store.Result) {
	b.Helper()
	const keyRange = 4096
	st, err := store.New(store.Config{
		Shards:   []store.ShardSpec{{Scheme: "ebr", Structure: "michael", Workers: 2}},
		KeyRange: keyRange,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	rng := workload.RNG(42)
	ops := make([]store.Op, batch)
	for i := range ops {
		ops[i] = store.Op{Kind: workload.OpInsert, Key: int64(rng.Next() % keyRange)}
	}
	res := make([]store.Result, batch)
	if err := st.DoInto(ops, res); err != nil {
		b.Fatal(err)
	}
	for i := range ops {
		ops[i].Kind = workload.OpContains
	}
	// Warm the request/spine pools and the worker scratch past growth.
	for i := 0; i < 64; i++ {
		if err := st.DoInto(ops, res); err != nil {
			b.Fatal(err)
		}
	}
	return st, ops, res
}

// BenchmarkDoInto measures the steady-state request spine: allocs/op is
// the headline, and its bar is zero — the pooled envelopes, spine, and
// worker scratch must absorb the whole fused round trip (CI greps the
// fused line for 0 allocs/op).
func BenchmarkDoInto(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		st, ops, res := benchStore(b, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.DoInto(ops, res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDo measures the allocating convenience wrapper for contrast:
// one result-slice allocation per call is its expected floor.
func BenchmarkDo(b *testing.B) {
	st, ops, _ := benchStore(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Do(ops); err != nil {
			b.Fatal(err)
		}
	}
}
