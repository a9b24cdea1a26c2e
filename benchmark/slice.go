package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// job is what the parent process asks one child process to do. Every
// measurement runs in a fresh child, so each gets a fresh deployment, Go
// heap and memory layout; the parent only orchestrates and aggregates.
type job struct {
	Kind     string `json:"kind"` // "slice", "ladder", "micro" or "probe"
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed"`

	// slice: one warm-up of WarmMs, then Windows windows of WindowMs.
	// Spans additionally records a client span per request (the traced
	// end-to-end slice tracing overhead is measured with).
	Windows  int  `json:"windows,omitempty"`
	WindowMs int  `json:"window_ms,omitempty"`
	WarmMs   int  `json:"warm_ms,omitempty"`
	Spans    bool `json:"spans,omitempty"`

	// ladder: Requests traced requests per rung after Warm untraced ones;
	// spans are written to TracePath (a traced slice writes its last
	// client spans there too).
	Requests  int    `json:"requests,omitempty"`
	Warm      int    `json:"warm,omitempty"`
	TracePath string `json:"trace_path,omitempty"`

	// micro: Chunks timed chunks per micro-loop. probe: ProbeMs of load.
	Chunks  int `json:"chunks,omitempty"`
	ProbeMs int `json:"probe_ms,omitempty"`
}

// sliceResult is one end-to-end slice: set-up, warm-up, measured windows,
// then the oracle and the end-of-slice memory and backlog readings.
type sliceResult struct {
	SetupS      []float64    `json:"setup_s"` // every set-up of the slice, the kept one last
	Windows     []windowStat `json:"windows"`
	AllocsPerOp float64      `json:"allocs_per_op"`
	HeapInuseMB float64      `json:"heap_inuse_mb"`
	PeakRetired uint64       `json:"peak_retired_nodes"`
	Attempted   int          `json:"attempted"` // ops executed, warm-up included; all are checked
	Failed      int          `json:"failed"`
	Mismatch    string       `json:"mismatch,omitempty"` // first oracle or safety finding
}

// setupsPerSlice is how many times a slice builds and prefills its
// deployment; all are timed, the last one serves the load.
const setupsPerSlice = 5

// maxSamples bounds the per-slice sample buffer: 4 Mi requests is over
// three times what the fastest workload issues in a slice.
const maxSamples = 1 << 22

// offHeap returns n zeroed values of T in memory mapped outside the Go
// heap and faulted in up front; it is never unmapped (a child process
// does one job and exits). The benchmark keeps its own bulk data there —
// raw samples, the request stream — because inside the heap it would be
// most of the live heap and set the collector's pace for the program
// under test, and because first-touch page faults would otherwise land in
// the timed loop. T must hold no pointer into the Go heap: the collector
// does not look here.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes off-heap: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// cpuTime is the process's user+system CPU time so far. At one P it
// tracks wall time but leaves out what the host took away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// client is the closed loop: one goroutine, one request in flight, the
// next one issued when the reply is in. With GOMAXPROCS=1 the schedule is
// client → shard worker(s) → client, the same every time.
type client struct {
	top     rung
	reqs    []request
	samples []sample
	n       int // requests executed; request i of the cyclic stream is reqs[i%len(reqs)]
	failed  int // ops that came back with an error
	spans   []clientSpan
}

// clientSpan is the traced slice's per-request span, kept in a ring.
type clientSpan struct {
	req        int
	start, end time.Duration
}

// phase runs the loop for windows windows of about width each and returns
// the marks that closed them. It stops early if the sample buffer fills.
func (c *client) phase(windows int, width time.Duration) []mark {
	marks := make([]mark, 0, windows)
	start := now()
	boundary := width
	for c.n < len(c.samples) {
		r := &c.reqs[c.n%len(c.reqs)]
		var began time.Duration
		if c.spans != nil {
			began = now() - start
		}
		span, check, failed := c.top.run(r)
		if c.spans != nil {
			c.spans[c.n%len(c.spans)] = clientSpan{req: c.n, start: began, end: began + span}
		}
		c.samples[c.n] = sample{lat: span, check: check}
		c.n++
		c.failed += failed
		if at := now() - start; at >= boundary {
			marks = append(marks, mark{upto: c.n, at: at, cpu: cpuTime()})
			if len(marks) == windows {
				break
			}
			boundary = at + width
		}
	}
	return marks
}

func (c *client) weight(i int) int { return c.reqs[i%len(c.reqs)].weight() }

func runSlice(j job) (*sliceResult, error) {
	res, top, err := measureSlice(j)
	if err != nil {
		return nil, err
	}
	// What the deployment itself keeps alive: the inputs, samples and
	// oracle went out of scope with measureSlice, so memory moved into
	// pools or set-up shows.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapInuseMB = float64(ms.HeapInuse) / (1 << 20)
	if err := top.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// measureSlice builds the deployment, runs the warm-up and the measured
// windows, and checks every output. The deployment is returned open.
func measureSlice(j job) (*sliceResult, rung, error) {
	sp, err := specByName(j.Workload)
	if err != nil {
		return nil, nil, err
	}
	reqs, err := sp.genRequests(j.Seed)
	if err != nil {
		return nil, nil, err
	}
	batches, err := sp.genPrefill(j.Seed)
	if err != nil {
		return nil, nil, err
	}
	samples, err := offHeap[sample](maxSamples)
	if err != nil {
		return nil, nil, err
	}

	// Set up several times and keep the last: a set-up takes
	// milliseconds, and one sample per slice would leave setup_s at the
	// mercy of a single page-fault storm.
	res := &sliceResult{}
	var top rung
	for i := 0; i < setupsPerSlice; i++ {
		if top != nil {
			if err := top.close(); err != nil {
				return nil, nil, err
			}
		}
		began := now()
		if top, err = newClientRung(sp); err != nil {
			return nil, nil, err
		}
		if err := prefill(top, batches); err != nil {
			return nil, nil, err
		}
		res.SetupS = append(res.SetupS, (now() - began).Seconds())
	}

	c := &client{top: top, reqs: reqs, samples: samples}
	if j.Spans {
		c.spans = make([]clientSpan, 1<<16)
	}
	c.phase(1, time.Duration(j.WarmMs)*time.Millisecond)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	from, cpu0 := c.n, cpuTime()
	marks := c.phase(j.Windows, time.Duration(j.WindowMs)*time.Millisecond)
	runtime.ReadMemStats(&m1)
	if len(marks) == 0 {
		return nil, nil, fmt.Errorf("%s: no measurement window completed", sp.name)
	}
	res.Windows = windowStats(samples, from, marks, c.weight, cpu0)
	measured := 0
	for _, w := range res.Windows {
		measured += w.Ops
	}
	res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(measured)

	// The oracle, outside every timed region: replay what was executed
	// against the set model, then compare final membership.
	m := newModel(sp.keyRange)
	v := verify(m, batches, reqs, func(i int) uint64 { return samples[i].check }, c.n)
	st := top.store()
	verifyMembership(m, st, &v)
	stats := st.Stats()
	for _, sh := range stats.Shards {
		if sh.MaxRetired > res.PeakRetired {
			res.PeakRetired = sh.MaxRetired
		}
	}
	if bad := stats.Faults + stats.UnsafeAccesses + stats.StaleUses + stats.Violations + stats.OOMs; bad != 0 {
		v.fail(int(bad), "safety counters: faults %d unsafe %d stale %d violations %d ooms %d",
			stats.Faults, stats.UnsafeAccesses, stats.StaleUses, stats.Violations, stats.OOMs)
	}
	for i := 0; i < c.n; i++ {
		res.Attempted += c.weight(i)
	}
	res.Failed = c.failed + v.failedOps
	res.Mismatch = v.first
	if res.Mismatch == "" && c.failed > 0 {
		res.Mismatch = fmt.Sprintf("%d operations returned an error", c.failed)
	}
	if j.Spans && j.TracePath != "" {
		if err := writeTrace(j.TracePath, traceFile{
			Workload: sp.name, Seed: j.Seed, TracedRequests: c.n - from, Spans: c.lastSpans(sp.name, from, 2000),
		}); err != nil {
			return nil, nil, err
		}
	}
	return res, top, nil
}

// lastSpans returns up to n of the most recent client spans recorded
// since request from, oldest first.
func (c *client) lastSpans(workload string, from, n int) []span {
	first := max(from, c.n-n, c.n-len(c.spans))
	out := make([]span, 0, c.n-first)
	for i := first; i < c.n; i++ {
		s := c.spans[i%len(c.spans)]
		out = append(out, span{
			Layer: "client", Workload: workload, RequestID: s.req,
			StartNs: int64(s.start), EndNs: int64(s.end),
		})
	}
	return out
}
