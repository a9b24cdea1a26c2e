// Package bench is the claim-gating experiment harness: every experiment
// the repository reports is one Experiment in one ordered registry, run
// under a Profile, producing a Result that renders its table, names its
// acceptance gates, and encodes as a BENCH_<name>.json artifact through
// one writer. cmd/erabench is a loop over the registry; CI is a matrix
// over its names. A new experiment is one file plus one registry line —
// no flag, no CI job, no re-export. (Absolute performance is measured
// elsewhere: the benchmark/ directory imports nothing from here.)
//
// Beneath the registry:
//
//   - internal/workload supplies the scenarios: key distributions and
//     op-mix schedules selected by name;
//   - the engine (engine.go) assembles arena + scheme + structure, runs an
//     untimed warmup and a timed measurement phase with per-thread op
//     loops driven by a workload.Source, and samples operation latencies;
//   - the fleet (fleet.go) is the faulted sharded-store scaffold the
//     deployment run (RunService: eraserve and EXP-CHAOS), the adaptive
//     and the observability experiments share.
//
// The paper itself is a theory paper with two proof illustrations and no
// measurement section; the harness therefore regenerates (a) the paper's
// two figures as deterministic executions (internal/core/adversary), and
// (b) the standard evaluation shape of the SMR literature the paper builds
// on — throughput under operation mixes, backlog audits under stalls (the
// matrix's R column, EXP-CHAOS), and the Harris-vs-Michael comparison the
// Section 6 discussion cites.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/workload"
)

// Mix is an operation mix in percent; the three fields must sum to 100.
// It is an alias of workload.Mix — the schedules in internal/workload
// modulate it over a run.
type Mix = workload.Mix

// Standard mixes used across the experiments (read-heavy, mixed,
// update-only), matching the sweeps in the IBR/NBR/VBR evaluations.
var (
	MixReadHeavy  = workload.MixReadHeavy
	MixBalanced   = workload.MixBalanced
	MixUpdateOnly = workload.MixUpdateOnly
)

// Profile is everything a run of the registry can vary. What differs
// between the smoke scale and the full scale of an experiment lives in
// that experiment's file, keyed on Short — the CLI, CI and the package's
// tests all go through it.
type Profile struct {
	// Short selects the reduced scale (what CI and the tests run).
	Short bool
	// Seed fixes every workload stream: equal seeds replay identical
	// operation sequences.
	Seed uint64
	// ObsAddr, when non-empty, serves the live observability plane on this
	// address for the duration of EXP-OBS's faulted run.
	ObsAddr string

	// Sizing of the classic sweeps (erabench -k -ops -keyrange); zero
	// selects the profile's default.
	K        int // Figure 1 churn length: matrix, structures
	Ops      int // operations per thread: throughput, michael
	KeyRange int // key universe: throughput, michael
	// Structure, Workload and Schedule name the throughput sweep's set
	// structure and the throughput-shaped experiments' key distribution
	// and op-mix schedule (registry names); empty selects
	// harris/uniform/steady.
	Structure string
	Workload  string
	Schedule  string
}

func (p Profile) pick(set, short, full int) int {
	switch {
	case set > 0:
		return set
	case p.Short:
		return short
	}
	return full
}

func (p Profile) k() int        { return p.pick(p.K, 300, 800) }
func (p Profile) ops() int      { return p.pick(p.Ops, 2000, 20000) }
func (p Profile) keyRange() int { return p.pick(p.KeyRange, 256, 1024) }

// Gate is one named acceptance criterion of an experiment: the boolean a
// claim rests on, and — when it does not hold — the measurement that
// broke it.
type Gate struct {
	Name   string
	OK     bool
	Detail string
}

// Result is what every experiment produces: a terminal table and the
// gates its claims rest on (nil for the experiments that assert nothing).
// Results other than the table-only ones encode as a JSON object.
type Result interface {
	WriteTable(w io.Writer)
	Gates() []Gate
}

// Artifact is an extra file an experiment produces beside its
// BENCH_<name>.json (EXP-OBS's Chrome trace): it lands in
// BENCH_<name>_<Suffix>.json.
type Artifact struct {
	Suffix string
	Write  func(io.Writer) error
}

// Artifacter is implemented by results that carry extra artifacts.
type Artifacter interface {
	Artifacts() []Artifact
}

// Experiment is one registry entry.
type Experiment struct {
	// Name is the registry key (erabench -exp, the CI matrix cell, the
	// BENCH_<Name>.json artifact).
	Name string
	// Title is the banner printed above the table.
	Title string
	// TableOnly marks the deterministic classics whose whole product is
	// the printed table: they have no JSON artifact.
	TableOnly bool
	Run       func(Profile) (Result, error)
}

// experiments is the registry, in the order "all" runs it.
var experiments = []Experiment{
	{Name: "matrix", Title: "EXP-ERA: the ERA matrix (Theorem 6.1)", TableOnly: true, Run: runMatrix},
	{Name: "throughput", Title: "EXP-THRU: scheme × mix × threads throughput sweep", Run: runThroughput},
	{Name: "structures", Title: "EXP-EXT: stalled traversal across structures (§6 open question)", TableOnly: true, Run: runStructures},
	{Name: "michael", Title: "EXP-MICHAEL: Harris+EBR vs Michael+HP (delete-heavy)", Run: runMichael},
	{Name: "chaos", Title: "EXP-CHAOS: live robustness audit under stall injection (ebr/ibr/hp)", Run: runChaosExperiment},
	{Name: "adaptive", Title: "EXP-ADAPT: static vs adaptive reclamation under a delayed-release storm", Run: runAdaptive},
	{Name: "obs", Title: "EXP-OBS: flight recorder + causal fault→verdict→migration timelines", Run: runObs},
	{Name: "pipeline", Title: "EXP-PIPELINE: blocking vs pipelined scatter-gather + partial-failure chaos", Run: runPipeline},
	{Name: "resil", Title: "EXP-RESIL: typed retries, hedged legs, retry-budget amplification bound", Run: runResil},
}

// Experiments returns the registry in run order.
func Experiments() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// Names returns the registered experiment names in run order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// Lookup resolves an experiment by name; an unknown name reports the
// registry listing.
func Lookup(name string) (Experiment, error) {
	for _, e := range experiments {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
}

// Check evaluates a result's gates: nil when all hold, otherwise an error
// naming the first that does not.
func Check(res Result) error {
	for _, g := range res.Gates() {
		if !g.OK {
			return fmt.Errorf("bench: gate %s failed: %s", g.Name, g.Detail)
		}
	}
	return nil
}

// WriteArtifact encodes a result as the indented JSON benchmark artifact
// every experiment shares: {"experiment": name, "gates": {gate: bool…},
// …the result's own fields inline}, so successive runs form a trajectory
// tooling can diff and every claim is a named boolean.
func WriteArtifact(w io.Writer, name string, res Result) error {
	body, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("bench: %s artifact: %w", name, err)
	}
	if len(body) < 2 || body[0] != '{' {
		return fmt.Errorf("bench: %s result does not encode as a JSON object", name)
	}
	var raw bytes.Buffer
	quoted, _ := json.Marshal(name) // a string always marshals
	fmt.Fprintf(&raw, `{"experiment":%s,"gates":{`, quoted)
	for i, g := range res.Gates() {
		if i > 0 {
			raw.WriteByte(',')
		}
		fmt.Fprintf(&raw, "%q:%t", g.Name, g.OK)
	}
	raw.WriteByte('}')
	if len(body) > 2 {
		raw.WriteByte(',')
	}
	raw.Write(body[1:])
	var out bytes.Buffer
	if err := json.Indent(&out, raw.Bytes(), "", "  "); err != nil {
		return fmt.Errorf("bench: %s artifact: %w", name, err)
	}
	out.WriteByte('\n')
	_, err = w.Write(out.Bytes())
	return err
}

// WriteArtifactFile writes the artifact into f and closes it. Callers
// create f before the run, so an unwritable path fails before any work.
func WriteArtifactFile(f *os.File, name string, res Result) error {
	err := WriteArtifact(f, name, res)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
