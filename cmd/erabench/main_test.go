package main

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestFlagsNameNoExperiment pins the CLI's shape: an experiment is a
// registry entry selected by -exp and scaled by -profile, never a flag of
// its own.
func TestFlagsNameNoExperiment(t *testing.T) {
	// -obs-addr is the observability plane's listen address (a deployment
	// setting named after internal/obs, as eraserve's -obs is), not a
	// knob of the obs experiment.
	exempt := map[string]bool{"obs-addr": true}
	n := 0
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		n++
		for _, e := range bench.Names() {
			if (f.Name == e || strings.HasPrefix(f.Name, e+"-")) && !exempt[f.Name] {
				t.Errorf("flag -%s is named after experiment %s", f.Name, e)
			}
		}
	})
	if n > 11 {
		t.Errorf("erabench registers %d flags, want at most 11", n)
	}
}
