package main

import (
	"fmt"

	"repro/internal/store"
	"repro/internal/workload"
)

// spec is one benchmark workload: a deployment, a request stream and the
// call the closed-loop client makes. The names are fixed; BENCHMARK.json
// and every later gain claim refer to them.
type spec struct {
	name string
	why  string

	// Deployment: shards × scheme × structure, one worker each.
	shards    int
	scheme    string
	structure string
	keyRange  int

	// Request stream. Keyed streams draw batch ops from mix over dist;
	// the fan-out stream draws workload.ReqMixFanout requests instead.
	batch  int
	mix    workload.Mix
	dist   string
	fanout bool
	// requests is how many distinct requests are generated and replayed
	// cyclically. Replay makes the state periodic, so how long each key
	// spends present — and with it the mean chain walk — is a property of
	// the cycle, not 1/2: a short cycle makes cost depend on the seed
	// (16 Ki small-hp requests: ±4 % traversal steps between seeds; 4 Ki
	// fan-out requests: ±8 %). The cycles are long enough to bring that
	// under 2 %.
	requests int

	// viaResil routes the client through resil.Client.Do instead of
	// store.DoInto.
	viaResil bool
	// ladderWarm is how many requests every ladder rung replays untraced
	// before the traced ones, so spans are taken on warm caches.
	ladderWarm int
}

const fanoutKeys = 16

var specs = []spec{
	{
		name: "batch-read",
		why: "256-op 90/5/5 batches walk ~32-node hashmap chains under one fused ebr window: " +
			"mem+smr+ds are most of the request, the store hand-off is amortised",
		shards: 2, scheme: "ebr", structure: "hashmap", keyRange: 4096,
		batch: 256, mix: workload.MixReadHeavy, dist: "uniform", requests: 1024, ladderWarm: 1024,
	},
	{
		name: "batch-update",
		why: "same deployment at 10/45/45: Alloc/Retire/reclaim scans and the retired backlog; " +
			"a read-path gain that costs the write path shows here",
		shards: 2, scheme: "ebr", structure: "hashmap", keyRange: 4096,
		batch: 256, mix: workload.Mix{ContainsPct: 10, InsertPct: 45, DeletePct: 45}, dist: "uniform",
		requests: 1024, ladderWarm: 1024,
	},
	{
		name: "small-hp",
		why: "8-op zipfian batches on hp shards: the store request spine (partition, two hand-offs, " +
			"pooled envelopes) is most of the request; bypasses fused-window amortisation",
		shards: 2, scheme: "hp", structure: "hashmap", keyRange: 1024,
		batch: 8, mix: workload.MixBalanced, dist: "zipfian", requests: 1 << 18, ladderWarm: 32768,
	},
	{
		name: "fanout",
		why: "16-key multi-key and range requests through resil+exec over 4 skiplist shards: " +
			"compile/scatter/merge dominate; p50 is keyed, p99 is the range iterator path",
		shards: 4, scheme: "ebr", structure: "skiplist", keyRange: 16384,
		dist: "uniform", fanout: true, requests: 1 << 16, viaResil: true, ladderWarm: 4096,
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one client request in the two shapes the layers take it:
// req for exec and resil, ops for store.DoInto and the bare structures.
// Range requests have no ops.
type request struct {
	req workload.Req
	ops []store.Op
}

// arena hands out the request stream's backing arrays from memory outside
// the Go heap (offHeap), so the inputs — tens of megabytes against a
// deployment of one to eight — neither pace the collector of the program
// under test nor count as its memory.
type arena struct {
	keys  []int64
	kinds []workload.Op
	ops   []store.Op
}

func newArena(totalKeys int) (*arena, error) {
	keys, err := offHeap[int64](totalKeys)
	if err != nil {
		return nil, err
	}
	kinds, err := offHeap[workload.Op](totalKeys)
	if err != nil {
		return nil, err
	}
	ops, err := offHeap[store.Op](totalKeys)
	if err != nil {
		return nil, err
	}
	return &arena{keys: keys, kinds: kinds, ops: ops}, nil
}

// take carves the next n entries off the front of *s.
func take[T any](s *[]T, n int) []T {
	out := (*s)[:n:n]
	*s = (*s)[n:]
	return out
}

// keyed builds a keyed request from copies of kinds and keys.
func (a *arena) keyed(kind workload.ReqKind, kinds []workload.Op, keys []int64) request {
	n := len(keys)
	r := request{req: workload.Req{Kind: kind, Keys: take(&a.keys, n)}, ops: take(&a.ops, n)}
	copy(r.req.Keys, keys)
	if kind == workload.ReqPoint {
		r.req.Ops = take(&a.kinds, n)
		copy(r.req.Ops, kinds)
	}
	for i, k := range keys {
		r.ops[i] = store.Op{Kind: kinds[i], Key: k}
	}
	return r
}

func (r *request) isRange() bool {
	return r.req.Kind == workload.ReqRangeScan || r.req.Kind == workload.ReqRangeCount
}

// weight is the request's operation count: one per key-level op, one for
// a whole range request.
func (r *request) weight() int {
	if r.isRange() {
		return 1
	}
	return len(r.req.Keys)
}

// genRequests draws the workload's request stream from seed. The program
// under test only ever sees these generated inputs.
func (sp *spec) genRequests(seed uint64) ([]request, error) {
	out, err := offHeap[request](sp.requests)
	if err != nil {
		return nil, err
	}
	if sp.fanout {
		src, err := workload.NewReqSource(workload.ReqConfig{
			Dist: sp.dist, KeyRange: sp.keyRange, Mix: workload.ReqMixFanout,
			MultiSize: fanoutKeys, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		a, err := newArena(sp.requests * fanoutKeys)
		if err != nil {
			return nil, err
		}
		kinds := make([]workload.Op, fanoutKeys)
		st := src.Thread(0, sp.requests)
		for i := range out {
			req := st.Next()
			out[i] = request{req: req}
			if !out[i].isRange() {
				for j := range kinds {
					kinds[j] = multiKinds[req.Kind]
				}
				out[i] = a.keyed(req.Kind, kinds, req.Keys)
			}
		}
		return out, nil
	}
	src, err := workload.New(workload.Config{Dist: sp.dist, KeyRange: sp.keyRange, Mix: sp.mix, Seed: seed})
	if err != nil {
		return nil, err
	}
	a, err := newArena(sp.requests * sp.batch)
	if err != nil {
		return nil, err
	}
	kinds := make([]workload.Op, sp.batch)
	keys := make([]int64, sp.batch)
	st := src.Thread(0, sp.requests*sp.batch)
	for i := range out {
		for j := range kinds {
			kinds[j], keys[j] = st.Next()
		}
		out[i] = a.keyed(workload.ReqPoint, kinds, keys)
	}
	return out, nil
}

var multiKinds = map[workload.ReqKind]workload.Op{
	workload.ReqMultiGet:    workload.OpContains,
	workload.ReqMultiInsert: workload.OpInsert,
	workload.ReqMultiDelete: workload.OpDelete,
}

// prefillBatch is the insert-batch size the prefill travels in.
const prefillBatch = 256

// genPrefill returns insert requests covering a seed-chosen half of the
// key range, so every deployment starts at the occupancy a balanced
// insert/delete mix holds it at.
func (sp *spec) genPrefill(seed uint64) ([]request, error) {
	keys := make([]int64, sp.keyRange)
	for i := range keys {
		keys[i] = int64(i)
	}
	rng := workload.RNG(seed ^ 0x5eed5eed5eed5eed)
	for i := len(keys) - 1; i > 0; i-- {
		j := int(rng.Next() % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	keys = keys[:sp.keyRange/2]
	a, err := newArena(len(keys))
	if err != nil {
		return nil, err
	}
	var out []request
	for len(keys) > 0 {
		n := prefillBatch
		if n > len(keys) {
			n = len(keys)
		}
		ops := make([]workload.Op, n)
		for i := range ops {
			ops[i] = workload.OpInsert
		}
		out = append(out, a.keyed(workload.ReqPoint, ops, keys[:n]))
		keys = keys[n:]
	}
	return out, nil
}
