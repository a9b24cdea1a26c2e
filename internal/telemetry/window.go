package telemetry

// WindowFit is the incremental form of the growth fit: a sliding window
// over the most recent points with the least-squares sums maintained as
// running totals, so each new sample costs O(1) amortized instead of a
// whole-series refit. It is what lets the robustness audit run *while*
// the store serves — the Monitor keeps one WindowFit per shard and reads
// a fresh classification off it on every decision tick — and it is also
// the engine under the end-of-run FitPoints, so the batch and online
// paths share one set of classification rules.
//
// An Ops regression between consecutive pushes marks a domain restart (a
// churned shard reopened, or a shard migrated to a new scheme, with
// fresh counters): the window resets, because points from the previous
// incarnation describe a heap that no longer exists.
//
// WindowFit is not safe for concurrent use; the Monitor adds the lock.
type WindowFit struct {
	buf  []Point
	head int    // next write position
	n    int    // valid points (≤ len(buf))
	seq  uint64 // points pushed since the last reset

	// origin re-centers x at the incarnation's first Ops reading: the
	// fitted slope is shift-invariant, and small x keeps the x² sums
	// exactly representable where raw cumulative op counts would not be.
	origin uint64
	// Running least-squares sums over the window: x = Ops−origin,
	// y = Retired.
	sx, sy, sxx, sxy float64

	// peak is a monotonically decreasing deque over the window, so the
	// window maximum survives evictions without a rescan.
	peak []peakEntry
}

type peakEntry struct {
	seq     uint64
	retired uint64
}

// NewWindowFit builds a fit over a sliding window of at most capacity
// points; capacity <= 0 selects 1.
func NewWindowFit(capacity int) *WindowFit {
	if capacity <= 0 {
		capacity = 1
	}
	return &WindowFit{buf: make([]Point, capacity)}
}

// at returns the i-th point of the window, oldest-first.
func (w *WindowFit) at(i int) Point {
	start := w.head - w.n
	if start < 0 {
		start += len(w.buf)
	}
	return w.buf[(start+i)%len(w.buf)]
}

// Len returns the number of points in the window.
func (w *WindowFit) Len() int { return w.n }

// Reset empties the window, marking a new domain incarnation.
func (w *WindowFit) Reset() {
	w.head, w.n, w.seq = 0, 0, 0
	w.sx, w.sy, w.sxx, w.sxy = 0, 0, 0, 0
	w.peak = w.peak[:0]
}

// Push slides the window forward by one sample. A point whose Ops
// regresses below the previous sample's resets the window first.
func (w *WindowFit) Push(p Point) {
	if w.n > 0 && p.Ops < w.at(w.n-1).Ops {
		w.Reset()
	}
	if w.seq == 0 {
		w.origin = p.Ops
	}
	if w.n == len(w.buf) {
		old := w.at(0)
		x, y := float64(old.Ops-w.origin), float64(old.Retired)
		w.sx -= x
		w.sy -= y
		w.sxx -= x * x
		w.sxy -= x * y
		if len(w.peak) > 0 && w.peak[0].seq == w.seq-uint64(w.n) {
			w.peak = w.peak[1:]
		}
		w.n--
	}
	w.buf[w.head] = p
	w.head = (w.head + 1) % len(w.buf)
	w.n++
	x, y := float64(p.Ops-w.origin), float64(p.Retired)
	w.sx += x
	w.sy += y
	w.sxx += x * x
	w.sxy += x * y
	for len(w.peak) > 0 && w.peak[len(w.peak)-1].retired <= p.Retired {
		w.peak = w.peak[:len(w.peak)-1]
	}
	w.peak = append(w.peak, peakEntry{seq: w.seq, retired: p.Retired})
	w.seq++
}

// Fit classifies the current window against budget. An empty window
// reports zero samples and bounded growth (no evidence of anything
// else), which the verdict layer maps to an inconclusive outcome.
func (w *WindowFit) Fit(budget Budget) Fit {
	f := Fit{Samples: w.n}
	if w.n == 0 {
		f.Growth = GrowthBounded
		f.GrowthName = f.Growth.String()
		return f
	}
	first, mid, last := w.at(0), w.at(w.n/2), w.at(w.n-1)
	if last.Ops >= first.Ops {
		f.Ops = last.Ops - first.Ops
	}
	f.PeakRetired = w.peak[0].retired
	n := float64(w.n)
	f.Plateau = w.sy / n
	if det := n*w.sxx - w.sx*w.sx; det > 0 {
		f.Slope = (n*w.sxy - w.sx*w.sy) / det
	}
	f.classify(first, mid, last, budget)
	return f
}
