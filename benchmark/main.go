// Command benchmark is the repository's performance benchmark: four
// serialised closed-loop service workloads measured end to end, and a
// traced outside-in ladder (mem → smr → ds → store → exec → resil) that
// says where a request's time goes. See README.md beside this file.
//
//	go run ./benchmark                 # every workload, every metric, the ladder
//	go run ./benchmark -quick          # the same in under 20 s, for smoke use
//	go run ./benchmark -aa 3           # two interleaved sets of 3 runs must agree
//	go run ./benchmark -workload fanout -seed 7 -seconds 20 -trace 0
//
// The last form is the one BENCHMARK.json's command takes: one workload,
// one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// plan is how much of everything one run measures.
type plan struct {
	seed       uint64
	rounds     int // end-to-end slices per workload
	windows    int // measurement windows per slice
	window     time.Duration
	warm       time.Duration
	ladderReqs int // traced requests per rung
	ladderWarm int // untraced requests per rung before them; 0 takes the workload's own
	probe      time.Duration
	chunks     int // timed chunks per micro-loop
	outDir     string
}

// windowsPerSecond cuts the measured time into 250 ms windows: short
// enough that a host hiccup spoils one window and not four, long enough
// that the slowest workload still has over a thousand requests — ten
// beyond p99 — in each.
const windowsPerSecond = 4

func defaultPlan(seed uint64, rounds int) plan {
	return plan{
		seed: seed, rounds: rounds, windows: 4 * windowsPerSecond, window: time.Second / windowsPerSecond, warm: time.Second,
		ladderReqs: 2000, probe: 3 * time.Second, chunks: 16,
		outDir: filepath.Join("benchmark", "out"),
	}
}

func quickPlan(seed uint64) plan {
	p := defaultPlan(seed, 1)
	p.windows, p.warm = windowsPerSecond, 250*time.Millisecond
	p.ladderReqs, p.ladderWarm, p.probe, p.chunks = 200, 200, 500*time.Millisecond, 4
	return p
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the result object BENCHMARK.json's contract asks for")
		seed         = flag.Uint64("seed", 1, "workload seed (seed 2 is the hold-out seed gain claims must also pass)")
		seconds      = flag.Int("seconds", 20, "with -workload: seconds of measurement windows")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced ladder and reports the per-layer metrics")
		rounds       = flag.Int("rounds", 6, "end-to-end slices per workload (one 5 s slice per workload per round)")
		quick        = flag.Bool("quick", false, "smoke run: 1 round of 1 s slices, 200-request ladder")
		aa           = flag.Int("aa", 0, "run two interleaved sets of N end-to-end runs of this binary and fail if their medians disagree by more than the bounds")
		child        = flag.String("child", "", "internal: run one measurement job (JSON) in this process")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	var err error
	switch {
	case *child != "":
		err = runChild(*child)
	case *workloadName != "":
		err = runDriver(*workloadName, *seed, *seconds, *trace != 0)
	case *aa > 0:
		err = runAA(*aa, defaultPlan(*seed, *rounds))
	case *quick:
		err = runFull(quickPlan(*seed))
	default:
		err = runFull(defaultPlan(*seed, *rounds))
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}

// errIncorrect reports that the program's outputs failed verification;
// the result has been printed all the same.
var errIncorrect = errors.New("outputs failed verification")

// runChild executes one job in this process and prints its result as one
// JSON object.
func runChild(spec string) error {
	var j job
	if err := json.Unmarshal([]byte(spec), &j); err != nil {
		return fmt.Errorf("child job: %w", err)
	}
	var res any
	var err error
	switch j.Kind {
	case "slice":
		res, err = runSlice(j)
	case "ladder":
		res, err = runLadder(j)
	case "micro":
		res, err = runMicro(j)
	case "probe":
		res, err = runProbe(j)
	default:
		err = fmt.Errorf("child job: unknown kind %q", j.Kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// spawn runs job j in a fresh child process of this binary with the given
// GOMAXPROCS and decodes its result into out. The child dies with the
// parent.
func spawn(j job, gomaxprocs int, out any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	arg, err := json.Marshal(j)
	if err != nil {
		return err
	}
	cmd := osexec.Command(self, "-child", string(arg))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// Pdeathsig fires when the creating *thread* exits, so the thread
	// must outlive the child.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child (%s): %w", j.Kind, j.Workload, err)
	}
	if err := json.Unmarshal(stdout, out); err != nil {
		return fmt.Errorf("%s child (%s): bad result: %w", j.Kind, j.Workload, err)
	}
	return nil
}

// serial is the GOMAXPROCS every timed measurement runs at: one P and one
// client make the schedule deterministic, so the numbers are the
// program's and not the scheduler's (README, "Why serialised").
const serial = 1

func (p plan) sliceJob(sp *spec, traced bool) job {
	j := job{
		Kind: "slice", Workload: sp.name, Seed: p.seed, Spans: traced,
		Windows: p.windows, WindowMs: int(p.window / time.Millisecond), WarmMs: int(p.warm / time.Millisecond),
	}
	if traced {
		j.TracePath = filepath.Join(p.outDir, "trace-"+sp.name+"-client.json")
	}
	return j
}

// measure runs one end-to-end slice of sp.
func (p plan) measure(sp *spec) (sliceResult, error) {
	var res sliceResult
	err := spawn(p.sliceJob(sp, false), serial, &res)
	return res, err
}

// traceWorkload runs sp's traced ladder and one traced end-to-end slice,
// and returns the workload's per-layer metrics. untraced is the untraced
// end-to-end result they are set against.
func (p plan) traceWorkload(sp *spec, untraced *e2eResult) (map[string]float64, checked, error) {
	warm := p.ladderWarm
	if warm == 0 {
		warm = sp.ladderWarm
	}
	var lad ladderResult
	err := spawn(job{
		Kind: "ladder", Workload: sp.name, Seed: p.seed, Requests: p.ladderReqs, Warm: warm,
		TracePath: filepath.Join(p.outDir, "trace-"+sp.name+".json"),
	}, serial, &lad)
	if err != nil {
		return nil, checked{}, err
	}
	var traced sliceResult
	if err := spawn(p.sliceJob(sp, true), serial, &traced); err != nil {
		return nil, checked{}, err
	}
	m := lad.Metrics
	base := untraced.stats()
	m["ladder.coverage"] = lad.PathSelfUs / base["req_p50_us"].Value
	tracedRun := e2eResult{slices: []sliceResult{traced}}
	m["trace.overhead_pct"] = 100 * (base["ops_per_s"].Value - tracedRun.stats()["ops_per_s"].Value) / base["ops_per_s"].Value
	c := checked{attempted: lad.Attempted + traced.Attempted, failed: lad.Failed + traced.Failed}
	c.note(lad.Mismatch)
	c.note(traced.Mismatch)
	return m, c, nil
}

// unitCosts runs the workload-independent children: the micro-loops and
// the concurrency probe (the only job that runs on every core).
func (p plan) unitCosts() (map[string]float64, checked, error) {
	m := map[string]float64{}
	if err := spawn(job{Kind: "micro", Chunks: p.chunks}, serial, &m); err != nil {
		return nil, checked{}, err
	}
	var pr probeResult
	if err := spawn(job{Kind: "probe", Seed: p.seed, ProbeMs: int(p.probe / time.Millisecond)}, runtime.NumCPU(), &pr); err != nil {
		return nil, checked{}, err
	}
	for k, v := range pr.Metrics {
		m[k] = v
	}
	c := checked{attempted: int(pr.Ops)}
	if pr.Mismatch != "" {
		c.failed = 1
		c.note(pr.Mismatch)
	}
	return m, c, nil
}

// checked accumulates the oracle's verdicts over a run.
type checked struct {
	attempted, failed int
	mismatch          string
}

func (c *checked) note(mismatch string) {
	if c.mismatch == "" {
		c.mismatch = mismatch
	}
}

func (c *checked) add(o checked) {
	c.attempted += o.attempted
	c.failed += o.failed
	c.note(o.mismatch)
}

// header echoes what a reader needs to judge the numbers' provenance.
func header(seed uint64) {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Fields(string(b))[0]
	}
	fmt.Printf("benchmark: seed %d, nproc %d, GOMAXPROCS %d for every timed child, %s, 1-min load %s\n",
		seed, runtime.NumCPU(), serial, runtime.Version(), load)
	if l, err := strconv.ParseFloat(load, 64); err == nil && l > 0.5 {
		fmt.Printf("benchmark: WARNING: load average %.2f > 0.5 — something else is running; expect noise\n", l)
	}
}

// runDriver is the BENCHMARK.json command: one workload, the result
// object on the last line.
func runDriver(name string, seed uint64, seconds int, traced bool) error {
	sp, err := specByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	header(seed)
	p := defaultPlan(seed, 1)
	sliceSeconds := min(4, seconds)
	if traced {
		// One untraced reference slice and one traced slice share the
		// seconds with the fixed work: ladder, micro-loops and probe.
		sliceSeconds = min(4, max(1, seconds/5))
	} else {
		p.rounds = seconds / sliceSeconds
	}
	p.windows = sliceSeconds * windowsPerSecond
	var e2e e2eResult
	var c checked
	for i := 0; i < p.rounds; i++ {
		s, err := p.measure(sp)
		if err != nil {
			return err
		}
		e2e.slices = append(e2e.slices, s)
	}
	c.add(e2e.checked())
	out := map[string]metricValue{}
	if traced {
		layer, lc, err := p.traceWorkload(sp, &e2e)
		if err != nil {
			return err
		}
		unit, uc, err := p.unitCosts()
		if err != nil {
			return err
		}
		c.add(lc)
		c.add(uc)
		for _, d := range layerDefs {
			v, ok := layer[d.name]
			if !ok {
				v, ok = unit[d.name]
			}
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			out[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	} else {
		st := e2e.stats()
		for _, d := range e2eDefs {
			out[d.name] = metricValue{Value: st[d.name].Value, Unit: d.unit}
		}
		printE2E(sp.name, st, nil)
	}
	if c.mismatch != "" {
		fmt.Printf("benchmark: %s: VERIFICATION FAILED: %s\n", sp.name, c.mismatch)
	}
	line, err := json.Marshal(driverResult{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if c.failed != 0 {
		return errIncorrect
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult is the object the BENCHMARK.json contract asks for.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
