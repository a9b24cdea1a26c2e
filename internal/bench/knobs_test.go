package bench_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/resil"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// knobs names, for every settable value of the deployment's config
// structs and every eraserve flag, what exercises it. A row is one of:
//
//	test pkg.TestName     a test that sets a non-default value and asserts
//	                      on the outcome (its file must name the field)
//	gate exp.gate         an experiment gate whose scenario sets it
//	ci job: token         a CI job whose steps pass or check token
//	wiring: path          plumbing, set by this one non-test caller
//	field Type.Field      (flags only) the flag feeds this field, whose
//	                      own row says what exercises it
//
// A new config field or flag needs a row here; a knob nothing exercises
// is a constant instead.
var knobs = map[string]string{
	"bench.ServiceConfig.Shards":          "test bench.TestRunServiceHeterogeneous",
	"bench.ServiceConfig.Schemes":         "test bench.TestRunServiceHeterogeneous",
	"bench.ServiceConfig.Structure":       "test bench.TestRunServiceRejectsBadScheme",
	"bench.ServiceConfig.WorkersPerShard": "gate resil.hedge_bounds_tail",
	"bench.ServiceConfig.Clients":         "test bench.TestRunServiceFanoutLane",
	"bench.ServiceConfig.Batch":           "wiring: cmd/eraserve/main.go",
	"bench.ServiceConfig.KeyRange":        "wiring: cmd/eraserve/main.go",
	"bench.ServiceConfig.Duration":        "test bench.TestRunServiceDurationBoxed",
	"bench.ServiceConfig.Faults":          "test bench.TestRunServiceFaultTargets",
	"bench.ServiceConfig.Mix":             "test bench.TestRunServiceMixReachesClients",
	"bench.ServiceConfig.Workload":        "ci bench-smoke: -workload zipfian",
	"bench.ServiceConfig.Schedule":        "wiring: cmd/eraserve/main.go",
	"bench.ServiceConfig.Seed":            "wiring: cmd/eraserve/main.go",
	"bench.ServiceConfig.Adapt":           "gate adaptive.improved",
	"bench.ServiceConfig.FanoutPct":       "test bench.TestRunServiceFanoutLane",
	"bench.ServiceConfig.FanoutMix":       "gate resil.hedge_bounds_tail",
	"bench.ServiceConfig.FanoutPace":      "gate resil.goodput_recovered",
	"bench.ServiceConfig.Retry":           "gate resil.goodput_recovered",
	"bench.ServiceConfig.Hedge":           "gate resil.hedge_bounds_tail",
	"bench.ServiceConfig.Breaker":         "ci obs-live: era_resil_breaker_opens_total{",
	"bench.ServiceConfig.Record":          "test bench.TestRunServiceFaultTargets",
	"bench.ServiceConfig.ObsAddr":         "ci obs-live: -obs 127.0.0.1:8080",

	"bench.Fault.Name":     "test bench.TestRunServiceRejectsBadScheme",
	"bench.Fault.Shards":   "test bench.TestRunServiceFaultTargets",
	"bench.Fault.Schedule": "test bench.TestRunServiceFaultTargets",

	"adapt.Config.Ladder":   "test adapt.TestNewValidatesLadder",
	"adapt.Config.Interval": "gate adaptive.improved",
	"adapt.Config.Clock":    "wiring: internal/bench/service.go",
	"adapt.Config.Recorder": "wiring: internal/bench/service.go",

	"resil.Config.MaxAttempts": "gate resil.goodput_recovered",
	"resil.Config.RetryBase":   "gate resil.goodput_recovered",
	"resil.Config.RetryCap":    "gate resil.goodput_recovered",
	"resil.Config.RetryBudget": "test resil.TestRetryBudgetExhaustion",
	"resil.Config.BudgetBurst": "test resil.TestRetryBudgetExhaustion",
	"resil.Config.Seed":        "wiring: internal/bench/service.go",
	"resil.Config.Hedge":       "gate resil.hedge_bounds_tail",
	"resil.Config.Breaker":     "test resil.TestBreakerLifecycle",
	"resil.Config.Clock":       "wiring: internal/bench/service.go",
	"resil.Config.Recorder":    "wiring: internal/bench/service.go",

	"exec.Config.QueueDepth":          "test exec.TestShedAndQueueAccounting",
	"exec.Config.DispatchersPerShard": "test exec.TestShedAndQueueAccounting",
	"exec.Config.LegTimeout":          "test exec.TestShardHealth",
	"exec.Config.Verdicts":            "test exec.TestVerdictAdmission",
	"exec.Config.Hedge":               "test exec.TestHedgeLoserDiscardAccounting",
	"exec.Config.Clock":               "wiring: internal/bench/service.go",
	"exec.Config.Recorder":            "wiring: internal/bench/service.go",

	"store.Config.Shards":       "test store.TestHeterogeneousShards",
	"store.Config.KeyRange":     "wiring: internal/bench/fleet.go",
	"store.Config.QueueDepth":   "test exec.TestShedAndQueueAccounting",
	"store.Config.MigrateGrace": "wiring: internal/bench/fleet.go",
	"store.Config.Recorder":     "wiring: internal/bench/fleet.go",

	"store.ShardSpec.Scheme":    "test store.TestHeterogeneousShards",
	"store.ShardSpec.Structure": "test store.TestRejectsInapplicablePair",
	"store.ShardSpec.Workers":   "test store.TestMigrateShardWithParkedWorker",
	"store.ShardSpec.Threshold": "wiring: internal/bench/fleet.go",
	"store.ShardSpec.Slots":     "test adapt.TestPolicyOOMEscalatesAtOnce",
	"store.ShardSpec.Gate":      "test store.TestShardGateParksWorker",

	"telemetry.Config.Interval": "wiring: internal/bench/fleet.go",
	"telemetry.Config.Capacity": "wiring: internal/bench/fleet.go",
	"telemetry.Config.OnSample": "wiring: internal/bench/fleet.go",
	"telemetry.Config.Clock":    "wiring: internal/bench/fleet.go",
	"telemetry.Config.Recorder": "wiring: internal/bench/fleet.go",

	"eraserve -shards":   "field bench.ServiceConfig.Shards",
	"eraserve -scheme":   "field bench.ServiceConfig.Schemes",
	"eraserve -ds":       "field bench.ServiceConfig.Structure",
	"eraserve -workers":  "field bench.ServiceConfig.WorkersPerShard",
	"eraserve -clients":  "field bench.ServiceConfig.Clients",
	"eraserve -batch":    "field bench.ServiceConfig.Batch",
	"eraserve -keyrange": "field bench.ServiceConfig.KeyRange",
	"eraserve -duration": "field bench.ServiceConfig.Duration",
	"eraserve -faults":   "field bench.ServiceConfig.Faults",
	"eraserve -adapt":    "field bench.ServiceConfig.Adapt",
	"eraserve -ladder":   "field adapt.Config.Ladder",
	"eraserve -workload": "field bench.ServiceConfig.Workload",
	"eraserve -mix":      "field bench.ServiceConfig.Schedule",
	"eraserve -opmix":    "field bench.ServiceConfig.Mix",
	"eraserve -seed":     "field bench.ServiceConfig.Seed",
	"eraserve -fanout":   "field bench.ServiceConfig.FanoutPct",
	"eraserve -retry":    "field bench.ServiceConfig.Retry",
	"eraserve -hedge":    "field bench.ServiceConfig.Hedge",
	"eraserve -breaker":  "field bench.ServiceConfig.Breaker",
	"eraserve -obs":      "field bench.ServiceConfig.ObsAddr",
	"eraserve -json":     "ci bench-smoke: -json BENCH_service.json",
	"eraserve -strict":   "test bench.TestCheckGates",
}

// knobTypes are the config structs whose exported fields are knobs.
var knobTypes = []reflect.Type{
	reflect.TypeOf(bench.ServiceConfig{}),
	reflect.TypeOf(bench.Fault{}),
	reflect.TypeOf(adapt.Config{}),
	reflect.TypeOf(resil.Config{}),
	reflect.TypeOf(exec.Config{}),
	reflect.TypeOf(store.Config{}),
	reflect.TypeOf(store.ShardSpec{}),
	reflect.TypeOf(telemetry.Config{}),
}

// TestEveryKnobHasARow fails when a config field or eraserve flag has no
// row, when a row outlives its knob, and when a row names a test, gate,
// CI job, caller or field that does not exist.
func TestEveryKnobHasARow(t *testing.T) {
	root := filepath.Join("..", "..")
	fields := map[string]string{} // knob → field name
	total := 0
	for _, typ := range knobTypes {
		n := 0
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields[typ.String()+"."+f.Name] = f.Name
				n++
			}
		}
		t.Logf("%-25s %2d settable values", typ, n)
		total += n
	}
	flags := eraserveFlags(t, filepath.Join(root, "cmd", "eraserve", "main.go"))
	t.Logf("%d settable values, %d eraserve flags", total, len(flags))

	tests := testFuncs(t, root)
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(knob, row string) {
		kind, arg, _ := strings.Cut(row, " ")
		switch kind {
		case "test":
			file, ok := tests[arg]
			if !ok {
				t.Errorf("%s: no test %s", knob, arg)
				return
			}
			if name, isField := fields[knob]; isField && !fileNames(t, file, name) {
				t.Errorf("%s: %s never names %s", knob, file, name)
			}
		case "gate":
			exp, gate, _ := strings.Cut(arg, ".")
			if !slices.Contains(wantGates[exp], gate) {
				t.Errorf("%s: experiment %q has no gate %q", knob, exp, gate)
			}
		case "ci":
			job, tok, _ := strings.Cut(arg, ": ")
			if !strings.Contains(string(ci), "\n  "+job+":\n") || !strings.Contains(string(ci), tok) {
				t.Errorf("%s: CI has no job %q carrying %q", knob, job, tok)
			}
		case "wiring:":
			name, isField := fields[knob]
			if !isField || strings.HasSuffix(arg, "_test.go") {
				t.Errorf("%s: wiring must name a field's non-test caller, not %s", knob, arg)
				return
			}
			if !fileNames(t, filepath.Join(root, arg), name) {
				t.Errorf("%s: %s never names %s", knob, arg, name)
			}
		case "field":
			_, isField := fields[arg]
			if !strings.HasPrefix(knob, "eraserve -") || !isField {
				t.Errorf("%s: %q is not a flag feeding a knob field", knob, row)
			}
		default:
			t.Errorf("%s: malformed row %q", knob, row)
		}
	}
	for knob := range fields {
		if row, ok := knobs[knob]; ok {
			check(knob, row)
		} else {
			t.Errorf("%s has no row: name the test or gate that exercises it, or make it a constant", knob)
		}
	}
	for flag := range flags {
		if row, ok := knobs["eraserve -"+flag]; ok {
			check("eraserve -"+flag, row)
		} else {
			t.Errorf("eraserve -%s has no row: name the test or gate that exercises it, or delete the flag", flag)
		}
	}
	for knob := range knobs {
		_, isField := fields[knob]
		flag, isFlag := strings.CutPrefix(knob, "eraserve -")
		if !isField && !(isFlag && flags[flag]) {
			t.Errorf("row %q names no field or flag", knob)
		}
	}
}

// eraserveFlags parses eraserve's main.go and returns the name of every
// flag a flag.* call defines.
func eraserveFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			out[name] = true
		}
		return true
	})
	return out
}

// testFuncs maps "pkgdir.TestName" to its file for every Test function in
// the module, pkgdir being the package directory's base name.
func testFuncs(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, the benchmark's build cache
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Base(filepath.Dir(path))
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				out[dir+"."+fn.Name.Name] = path
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fileNames reports whether the file's text contains name as a whole
// identifier.
func fileNames(t *testing.T, path, name string) bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v", err)
		return false
	}
	return regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(b)
}
