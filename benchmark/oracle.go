package main

import (
	"fmt"

	"repro/internal/store"
	"repro/internal/workload"
)

// model is the output oracle: a plain Go set. The benchmark's schedule is
// serial (one client, one reply at a time), so replaying the executed
// request sequence against the model, outside the timed loop, predicts
// every output the program gave.
type model struct {
	present []bool
	keys    []int64 // range-scan scratch
}

func newModel(keyRange int) *model { return &model{present: make([]bool, keyRange)} }

// apply executes r on the model and returns the fold the program's
// outputs must match. Ops run in submission order; the store's stable
// key sort preserves that order per key and distinct keys commute.
func (m *model) apply(r *request) uint64 {
	if r.isRange() {
		countOnly := r.req.Kind == workload.ReqRangeCount
		keys := m.keys[:0]
		var count uint64
		for k := r.req.Lo; k < r.req.Hi; k++ {
			if m.present[k] {
				count++
				if !countOnly {
					keys = append(keys, k)
				}
			}
		}
		m.keys = keys
		return foldRange(countOnly, keys, count)
	}
	f := newFold(len(r.ops))
	for _, op := range r.ops {
		had := m.present[op.Key]
		switch op.Kind {
		case workload.OpContains:
			f.add(had, nil)
		case workload.OpInsert:
			m.present[op.Key] = true
			f.add(!had, nil)
		case workload.OpDelete:
			m.present[op.Key] = false
			f.add(had, nil)
		}
	}
	return f.check
}

// verdict is the oracle's finding over one executed request sequence.
type verdict struct {
	failedOps int    // ops in requests whose outputs differ, plus keys whose final membership differs
	first     string // first mismatch, for the report
}

func (v *verdict) fail(ops int, format string, args ...any) {
	v.failedOps += ops
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// verify replays prefill and then the executed sequence — request i of
// the cyclic stream produced checks[i] — and compares every output.
func verify(m *model, batches, reqs []request, checks func(i int) uint64, executed int) verdict {
	var v verdict
	for i := range batches {
		m.apply(&batches[i])
	}
	for i := 0; i < executed; i++ {
		r := &reqs[i%len(reqs)]
		if want, got := m.apply(r), checks(i); want != got {
			v.fail(r.weight(), "request %d (%v): output fold %#x, oracle %#x", i, r.req.Kind, got, want)
		}
	}
	return v
}

// verifyMembership compares the store's final contents, read by a
// full-range scan of every shard, with the model's.
func verifyMembership(m *model, st *store.Store, v *verdict) {
	seen := make([]bool, len(m.present))
	for s := 0; s < st.Shards(); s++ {
		keys, _, err := st.ScanShard(s, 0, int64(len(m.present)), 0, false)
		if err != nil {
			v.fail(1, "final scan of shard %d: %v", s, err)
			continue
		}
		for _, k := range keys {
			if k < 0 || k >= int64(len(seen)) || seen[k] {
				v.fail(1, "final scan of shard %d: stray or repeated key %d", s, k)
				continue
			}
			seen[k] = true
		}
	}
	for k := range seen {
		if seen[k] != m.present[k] {
			v.fail(1, "final membership of key %d: store %v, oracle %v", k, seen[k], m.present[k])
		}
	}
}
