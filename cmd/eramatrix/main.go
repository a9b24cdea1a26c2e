// Command eramatrix prints the paper's executions: for every reclamation
// scheme in the repository, the claimed Ease-of-integration / Robustness /
// Applicability classes and their empirical validation, the Theorem 6.1
// verdict that no row achieves all three, each safe scheme's Figure 1 and
// Figure 2 witness on Harris's list, the Figure 1 stall replayed on every
// traversal structure (the Section 6 question of which structures behave
// like Harris's list), and the cells the randomized concurrent checks have
// seen failing (registry.KnownRed).
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
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/core/adversary"
	"repro/internal/ds/registry"
	"repro/internal/mem"
)

func main() {
	k := flag.Int("k", 600, "Figure 1 churn length of the Harris witness and the structure stalls")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "eramatrix:", err)
		os.Exit(1)
	}
	m, err := core.BuildMatrix(*k)
	if err != nil {
		fail(err)
	}
	fmt.Printf("ERA matrix (audited-R: telemetry's growth fit of a stalled reader's backlog on Harris's list,\n"+
		"slope in retired nodes per op; Harris witness: Figures 1 and 2, Figure 1 churn K=%d;\n"+
		"* = audited class differs from declared, ! = unsafe on Harris)\n\n", m.FigureK)
	fmt.Print(m.String())

	fmt.Printf("\nHarris witnesses (Figure 1 at K=%d, Figure 2 / Appendix E):\n", m.FigureK)
	for _, r := range m.Rows {
		fmt.Println(r.Figure1)
		fmt.Println(r.Figure2)
	}

	fmt.Printf("\nstalled traversal across structures (Section 6 open question, K=%d):\n", m.FigureK)
	for _, structure := range registry.TraversalSetNames() {
		fmt.Printf("-- %s --\n", structure)
		for _, r := range m.Rows {
			o, err := adversary.StallTraversal(r.Scheme, structure, m.FigureK, mem.Unmap)
			if err != nil {
				fail(err)
			}
			fmt.Println(o)
		}
	}

	fmt.Println("\nknown red cells (randomized concurrent checks; \"*\" = every structure):")
	for _, r := range registry.KnownRed {
		fmt.Printf("  %-5s × %-8s since %s: %s\n", r.Scheme, r.Structure, r.Since, r.Symptom)
	}
	os.Exit(status(m, os.Stderr))
}

// status is the exit status m earns: 2 when some row achieves all three
// properties, else 1 when some row's measurements contradict its declared
// classes, else 0. Each contradicting row is named on w.
func status(m core.Matrix, w io.Writer) int {
	code := 0
	for _, r := range m.Rows {
		if !r.Consistent {
			fmt.Fprintf(w, "eramatrix: %s: measurements contradict the declared classes\n", r.Scheme)
			code = 1
		}
	}
	if !m.TheoremHolds() {
		return 2
	}
	return code
}
