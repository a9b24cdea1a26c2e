// Command eramatrix builds and prints the ERA matrix: for every
// reclamation scheme in the repository, the claimed Ease-of-integration /
// Robustness / Applicability classes and their empirical validation, the
// Theorem 6.1 verdict that no row achieves all three, and the cells the
// randomized concurrent checks have seen failing (registry.KnownRed).
//
// It exits 1 when any row's measurements contradict its claims and 2 when
// some row achieves all three properties.
//
// Usage:
//
//	eramatrix [-k churn]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/ds/registry"
)

func main() {
	k := flag.Int("k", 600, "Figure 1 churn length of the Harris witness")
	flag.Parse()

	m, err := core.BuildMatrix(*k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eramatrix:", err)
		os.Exit(1)
	}
	fmt.Printf("ERA matrix (audited-R: telemetry's growth fit of a stalled reader's backlog on Harris's list,\n"+
		"slope in retired nodes per op; Harris witness: Figures 1 and 2, Figure 1 churn K=%d;\n"+
		"* = audited class differs from declared, ! = unsafe on Harris)\n\n", m.FigureK)
	fmt.Print(m.String())
	fmt.Println("\nknown red cells (randomized concurrent checks; \"*\" = every structure):")
	for _, r := range registry.KnownRed {
		fmt.Printf("  %-5s × %-8s since %s: %s\n", r.Scheme, r.Structure, r.Since, r.Symptom)
	}
	if !m.TheoremHolds() {
		os.Exit(2)
	}
	inconsistent := false
	for _, r := range m.Rows {
		if !r.Consistent {
			fmt.Fprintf(os.Stderr, "eramatrix: %s: measurements contradict the declared classes\n", r.Scheme)
			inconsistent = true
		}
	}
	if inconsistent {
		os.Exit(1)
	}
}
