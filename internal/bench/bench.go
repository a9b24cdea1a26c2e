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
//   - EXP-THRU's cells (experiments.go) run on the seeded driver
//     (internal/ds/drive): per cell a fresh heap, a prefill script, an
//     untimed warmup script and a timed one, each thread's ops drawn from
//     a workload stream — a failure prints the drive.Script that replays
//     it;
//   - RunService (service.go) is the one deployment run: eraserve's, and
//     every service experiment's — EXP-CHAOS, EXP-ADAPT, EXP-OBS and
//     EXP-RESIL are one or two ServiceConfig literals each plus gates over
//     ServiceResult, and an A/B is two calls whose configs differ in one
//     field;
//   - the fleet (fleet.go) is the scaffold under it and the only place
//     the package builds a store: gated shards, prefill, sampler, verdict
//     monitor, chaos engine, run clock; its runClients is the one client
//     pool, behind the point-op clients and the fan-out lane.
//
// The paper itself is a theory paper with two proof illustrations and no
// measurement section. Its two figures are deterministic executions
// (internal/core/adversary) that cmd/eramatrix prints beside the ERA
// matrix; this harness regenerates the standard evaluation shape of the
// SMR literature the paper builds on — throughput under operation mixes,
// live backlog audits under stalls (EXP-CHAOS), and the Harris-vs-Michael
// comparison the Section 6 discussion cites.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

	// Sizing of the throughput sweep (erabench -ops -keyrange); zero
	// selects the profile's default.
	Ops      int // operations per thread
	KeyRange int // key universe
	// Structure, Workload and Schedule name the throughput sweep's set
	// structure, key distribution and op-mix schedule (registry names);
	// empty selects harris/uniform/steady.
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
// Every result encodes as a JSON object.
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
	Run   func(Profile) (Result, error)
}

// experiments is the registry, in the order "all" runs it.
var experiments = []Experiment{
	{Name: "throughput", Title: "EXP-THRU: scheme × mix × threads throughput cells, then EXP-MICHAEL's Harris+EBR vs Michael+HP", Run: runThroughput},
	{Name: "chaos", Title: "EXP-CHAOS: live robustness audit under stall injection (ebr/ibr/hp) + partial-failure campaign", Run: runChaos},
	{Name: "adaptive", Title: "EXP-ADAPT: static vs adaptive reclamation under a delayed-release storm", Run: runAdaptive},
	{Name: "obs", Title: "EXP-OBS: flight recorder + causal fault→verdict→migration timelines", Run: runObs},
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
