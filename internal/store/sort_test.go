package store

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ds"
)

// TestSortBatchMatchesSliceStable is sortBatch's property test: for
// batches of every length around the insertion/radix boundary, over key
// sets from all-ties to negative and full-width keys (every radix pass,
// sign byte included), the result is exactly what sort.SliceStable makes
// of the same (op, pos) pairs — sorted, a permutation of the input,
// equal keys in input order, pos carried.
func TestSortBatchMatchesSliceStable(t *testing.T) {
	type pair struct {
		op  ds.BatchOp
		pos int
	}
	rng := rand.New(rand.NewSource(1))
	var sc workerScratch
	for _, n := range []int{0, 1, 2, insertionSortMax - 1, insertionSortMax, insertionSortMax + 1, 100, 128, 129, 257, 1000} {
		for _, keys := range []int64{1, 3, 16, 300, 1 << 20, math.MaxInt64} {
			sc.size(n)
			ops, pos := sc.ops[:n], sc.pos[:n]
			want := make([]pair, n)
			for i := range ops {
				// Centred on zero: half the keys are negative.
				ops[i] = ds.BatchOp{Kind: ds.BatchKind(rng.Intn(3)), Key: rng.Int63n(keys) - keys/2}
				pos[i] = 7*i + 1 // unique, so a tie broken the wrong way shows
				want[i] = pair{ops[i], pos[i]}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].op.Key < want[j].op.Key })
			gotOps, gotPos := sortBatch(ops, pos, sc.ops2[:n], sc.pos2[:n])
			if len(gotOps) != n || len(gotPos) != n {
				t.Fatalf("n=%d keys=%d: sorted lengths %d/%d", n, keys, len(gotOps), len(gotPos))
			}
			for i := range want {
				if gotOps[i] != want[i].op || gotPos[i] != want[i].pos {
					t.Fatalf("n=%d keys=%d: position %d holds (%+v, pos %d), sort.SliceStable put (%+v, pos %d) there",
						n, keys, i, gotOps[i], gotPos[i], want[i].op, want[i].pos)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		ops, pos := sc.ops[:128], sc.pos[:128]
		for i := range ops {
			ops[i].Key = int64(127 - i)
		}
		sortBatch(ops, pos, sc.ops2[:128], sc.pos2[:128])
	}); allocs != 0 {
		t.Errorf("sortBatch allocates %v times per 128-op batch, want 0", allocs)
	}
}
