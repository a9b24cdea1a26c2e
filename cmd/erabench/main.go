// Command erabench runs the experiment registry (internal/bench) and
// prints each experiment's table:
//
//	erabench -exp NAME|all [-profile short|full] [-out DIR] [-check]
//
// The experiment names, in the order "all" runs them, are the registry's;
// an unknown name lists them. -profile short is the reduced scale CI runs.
// -out DIR writes each experiment's machine-readable artifact to
// DIR/BENCH_<name>.json; nothing is written without it. -check turns the
// experiment's gates into the exit status.
//
// The throughput sweep is workload-driven: -workload names the key
// distribution and -mix the op-mix schedule, both resolved through
// the internal/workload registries. -seed fixes every stream, so two runs
// with equal flags replay identical operation sequences.
//
//	erabench -exp throughput -workload zipfian -mix phased -out .
//	erabench -exp chaos -profile short -out . -check
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/ds/registry"
	"repro/internal/workload"
)

var (
	exp       = flag.String("exp", "all", fmt.Sprintf("experiment %v or all", bench.Names()))
	profile   = flag.String("profile", "full", "scale: short (the CI smoke configuration) or full")
	out       = flag.String("out", "", "directory for BENCH_<name>.json artifacts (empty writes none)")
	check     = flag.Bool("check", false, "exit 1 when any of an experiment's gates does not hold")
	seed      = flag.Uint64("seed", 42, "workload seed: runs with equal seeds draw identical operation streams")
	ops       = flag.Int("ops", 0, "operations per thread for the throughput sweep (0 = the profile's default)")
	keyRange  = flag.Int("keyrange", 0, "key universe for the throughput sweep (0 = the profile's default)")
	structure = flag.String("structure", "harris", "set structure for the throughput sweep")
	wl        = flag.String("workload", "uniform",
		fmt.Sprintf("key distribution for the throughput sweep %v", workload.DistNames()))
	mix = flag.String("mix", "steady",
		fmt.Sprintf("op-mix schedule for the throughput sweep %v", workload.ScheduleNames()))
	obsAddr = flag.String("obs-addr", "",
		"serve the live observability plane on this address during the obs experiment (e.g. :8080)")
)

func main() {
	flag.Parse()

	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "erabench: %v\n", err)
		os.Exit(2)
	}
	// Reject bad selections up front rather than after a long run.
	exps := bench.Experiments()
	if *exp != "all" {
		e, err := bench.Lookup(*exp)
		if err != nil {
			usage(err)
		}
		exps = []bench.Experiment{e}
	}
	if *profile != "short" && *profile != "full" {
		usage(fmt.Errorf("unknown profile %q (have [short full])", *profile))
	}
	if _, err := workload.NewDist(*wl, 2); err != nil {
		usage(err)
	}
	if _, err := workload.NewSchedule(*mix, workload.MixBalanced); err != nil {
		usage(err)
	}
	if info, err := registry.Get(*structure); err != nil {
		usage(err)
	} else if info.Kind != registry.KindSet {
		usage(fmt.Errorf("throughput runs on set structures, %s is a %v", *structure, info.Kind))
	}
	p := bench.Profile{
		Short: *profile == "short", Seed: *seed, ObsAddr: *obsAddr,
		Ops: *ops, KeyRange: *keyRange,
		Structure: *structure, Workload: *wl, Schedule: *mix,
	}

	// Artifact files are created before anything runs, so an unwritable
	// path cannot surface only after a long run.
	files := map[string]*os.File{}
	if *out != "" {
		for _, e := range exps {
			f, err := os.Create(artifactPath(*out, e.Name))
			if err != nil {
				usage(err)
			}
			files[e.Name] = f
		}
	}

	failed := false
	for _, e := range exps {
		fmt.Printf("==== %s ====\n", e.Title)
		res, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "erabench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		res.WriteTable(os.Stdout)
		if f := files[e.Name]; f != nil {
			if err := writeArtifacts(f, *out, e.Name, res); err != nil {
				fmt.Fprintf(os.Stderr, "erabench: %s: %v\n", e.Name, err)
				os.Exit(1)
			}
		}
		if *check {
			if err := bench.Check(res); err != nil {
				fmt.Fprintf(os.Stderr, "erabench: %s: %v\n", e.Name, err)
				failed = true
			}
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

func artifactPath(dir, name string) string {
	return filepath.Join(dir, "BENCH_"+name+".json")
}

// writeArtifacts writes the experiment's artifact into f, then any extra
// artifacts the result carries beside it.
func writeArtifacts(f *os.File, dir, name string, res bench.Result) error {
	if err := bench.WriteArtifactFile(f, name, res); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", f.Name())
	extra, ok := res.(bench.Artifacter)
	if !ok {
		return nil
	}
	for _, a := range extra.Artifacts() {
		path := artifactPath(dir, name+"_"+a.Suffix)
		xf, err := os.Create(path)
		if err != nil {
			return err
		}
		err = a.Write(xf)
		if cerr := xf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
