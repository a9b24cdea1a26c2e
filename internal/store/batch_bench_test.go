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
	// fused-update is the write-heavy deployment in one process: an ebr
	// hashmap shard with one worker serving 256-op 10/45/45 batches, each
	// in one fused window. Its CPU profile shows what the retire path and
	// the reclamation scans cost per batch.
	b.Run("fused-update", func(b *testing.B) {
		const keyRange, batch, batches = 4096, 256, 64
		st, err := store.New(store.Config{
			Shards:   []store.ShardSpec{{Scheme: "ebr", Structure: "hashmap", Workers: 1}},
			KeyRange: keyRange,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		src, err := workload.New(workload.Config{
			KeyRange: keyRange, Seed: 1,
			Mix: workload.Mix{ContainsPct: 10, InsertPct: 45, DeletePct: 45},
		})
		if err != nil {
			b.Fatal(err)
		}
		stream := src.Thread(0, batch*batches)
		ring := make([][]store.Op, batches)
		for i := range ring {
			ring[i] = make([]store.Op, batch)
			for j := range ring[i] {
				ring[i][j].Kind, ring[i][j].Key = stream.Next()
			}
		}
		res := make([]store.Result, batch)
		// Run the ring once to reach the mix's steady occupancy and warm
		// the pools and the retire lists past growth.
		for _, ops := range ring {
			if err := st.DoInto(ops, res); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.DoInto(ring[i%batches], res); err != nil {
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
