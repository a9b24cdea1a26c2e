package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Dist draws keys from [0, KeyRange). Implementations must be safe for
// concurrent use from multiple streams: any per-draw state lives in the
// stream's RNG, anything precomputed at construction is read-only.
type Dist interface {
	// Name is the registry key.
	Name() string
	// Key draws the key for operation i of a total-operation stream using
	// the stream's rng. Distributions that evolve over the run (shifting)
	// use i/total as their clock.
	Key(r *RNG, i, total int) int64
}

// DistFactory builds a distribution over a key universe.
type DistFactory func(keyRange int) Dist

var dists = map[string]DistFactory{
	"uniform":  func(n int) Dist { return uniform{n: uint64(n)} },
	"zipfian":  func(n int) Dist { return newZipfian(n, 0.99) },
	"hotset":   func(n int) Dist { return hotset{n: uint64(n), hot: hotCount(n), pctHot: 90} },
	"shifting": func(n int) Dist { return shifting{n: n, window: windowSize(n)} },
}

// DistNames returns every registered distribution name, sorted.
func DistNames() []string {
	names := make([]string, 0, len(dists))
	for n := range dists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewDist builds the named distribution over [0, keyRange). A
// non-positive keyRange selects the same 1024 default as New, so a
// misconfigured range cannot surface later as a divide-by-zero draw.
func NewDist(name string, keyRange int) (Dist, error) {
	f, ok := dists[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown key distribution %q (have %v)", name, DistNames())
	}
	if keyRange <= 0 {
		keyRange = 1024
	}
	return f(keyRange), nil
}

// --- uniform ----------------------------------------------------------------

type uniform struct{ n uint64 }

func (uniform) Name() string                 { return "uniform" }
func (u uniform) Key(r *RNG, _, _ int) int64 { return int64(r.Next() % u.n) }

// --- zipfian ----------------------------------------------------------------

// zipfian is the YCSB-style scrambled zipfian generator (Gray et al.,
// "Quickly Generating Billion-Record Synthetic Databases"): rank
// popularity follows 1/rank^theta, and ranks are hashed into the key space
// so the hot keys are spread across the structure rather than clustered at
// its low end (adjacent hot keys would shorten sorted-structure traversals
// and flatter the measurement).
type zipfian struct {
	n            uint64
	theta        float64
	alpha        float64
	zetan, eta   float64
	halfPowTheta float64
}

// zetaCache memoizes the O(n) zeta sums: sweeps build one distribution per
// row and would otherwise recompute the identical sum every time.
var zetaCache sync.Map // zetaKey -> float64

type zetaKey struct {
	n     uint64
	theta float64
}

func zetaMemo(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	if v, ok := zetaCache.Load(k); ok {
		return v.(float64)
	}
	z := zeta(n, theta)
	zetaCache.Store(k, z)
	return z
}

func newZipfian(n int, theta float64) zipfian {
	zetan := zetaMemo(uint64(n), theta)
	return zipfian{
		n:            uint64(n),
		theta:        theta,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
	}
}

func zeta(n uint64, theta float64) float64 {
	var z float64
	for i := uint64(1); i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	return z
}

func (zipfian) Name() string { return "zipfian" }

func (z zipfian) Key(r *RNG, _, _ int) int64 {
	u := r.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.halfPowTheta:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	// Scramble the rank into the key space (collisions just merge weight).
	return int64(mix64(rank) % z.n)
}

// --- hotset -----------------------------------------------------------------

// hotset sends pctHot percent of the draws to a small hot set of keys
// spread across the key space by the same rank scrambling as zipfian.
type hotset struct {
	n      uint64
	hot    uint64
	pctHot uint64
}

func hotCount(n int) uint64 {
	h := uint64(n / 10)
	if h == 0 {
		h = 1
	}
	return h
}

func (hotset) Name() string { return "hotset" }

func (h hotset) Key(r *RNG, _, _ int) int64 {
	if r.Next()%100 < h.pctHot {
		return int64(mix64(r.Next()%h.hot) % h.n)
	}
	return int64(r.Next() % h.n)
}

// --- shifting ---------------------------------------------------------------

// shifting draws uniformly from a window that slides once across the key
// space over the stream's lifetime — the working set churns, so structures
// and schemes face a stream of cold keys instead of a stable hot set.
type shifting struct {
	n      int
	window int
}

func windowSize(n int) int {
	w := n / 8
	if w == 0 {
		w = 1
	}
	return w
}

func (shifting) Name() string { return "shifting" }

func (s shifting) Key(r *RNG, i, total int) int64 {
	start := 0
	if total > 0 && s.n > s.window {
		// Draws past the declared total hold the final window rather than
		// wrapping to a cold restart (matching Stream.Next's overrun rule).
		if i >= total {
			i = total - 1
		}
		start = int(uint64(i) * uint64(s.n-s.window) / uint64(total))
	}
	return int64(start + int(r.Next()%uint64(s.window)))
}
