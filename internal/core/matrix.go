package core

import (
	"fmt"
	"strings"

	"repro/internal/core/adversary"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/telemetry"
)

// MatrixRow is one scheme's line in the ERA matrix: the declared classes,
// their measurements, and the two-of-three verdict.
type MatrixRow struct {
	Scheme string

	// Easy is the Definition 5.3 classification.
	Easy bool
	// Integration is the full condition breakdown.
	Integration IntegrationReport

	// Robustness relates the declared robustness class to the one
	// telemetry's growth fit audits from a stalled reader's backlog.
	Robustness telemetry.Verdict
	// Robust is the ERA-theorem-relevant bit: the audited class is at
	// least weakly robust.
	Robust bool

	// ClaimedApplicability is the scheme's declared class.
	ClaimedApplicability smr.ApplicabilityClass
	// HarrisSafe aggregates the deterministic adversary executions on
	// Harris's list — the access-aware witness of Definition 5.6.
	HarrisSafe bool
	// Wide is the ERA-theorem-relevant bit: applicable to the
	// access-aware class, confirmed on its witness.
	Wide bool

	// Consistent reports that measurements agree with claims: the audit
	// does not contradict the declared robustness, and the Harris
	// witness matches the applicability claim.
	Consistent bool
}

// Count returns how many of the three ERA properties the row has.
func (r MatrixRow) Count() int {
	n := 0
	if r.Easy {
		n++
	}
	if r.Robust {
		n++
	}
	if r.Wide {
		n++
	}
	return n
}

// Matrix is the full ERA matrix.
type Matrix struct {
	Rows []MatrixRow
	// FigureK is the Figure 1 churn length the Harris witness used.
	FigureK int
}

// TheoremHolds reports that no scheme achieved all three properties —
// the empirical statement of Theorem 6.1.
func (m Matrix) TheoremHolds() bool {
	for _, r := range m.Rows {
		if r.Count() == 3 {
			return false
		}
	}
	return true
}

// String renders the matrix as an aligned table. An audited robustness
// class that differs from the declared one carries a *, an applicability
// claim its Harris witness refutes a !.
func (m Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %-5s %-14s %-15s %-14s %-6s %s\n",
		"scheme", "easy", "declared-R", "audited-R", "applicability", "count", "evidence")
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, r := range m.Rows {
		v := r.Robustness
		audited := v.Audited
		if audited != v.Declared {
			audited += "*"
		}
		ap := r.ClaimedApplicability.String()
		if !r.HarrisSafe {
			ap += "!"
		}
		fmt.Fprintf(&b, "%-11s %-5s %-14s %-15s %-14s %-6d slope=%.3f plateau=%.0f harris-safe=%s consistent=%s\n",
			r.Scheme, yn(r.Easy), v.Declared, audited, ap, r.Count(),
			v.Fit.Slope, v.Fit.Plateau, yn(r.HarrisSafe), yn(r.Consistent))
	}
	fmt.Fprintf(&b, "ERA theorem (no all-yes row): holds=%v\n", m.TheoremHolds())
	return b.String()
}

// Classify measures the ERA row of the scheme f builds — a registered
// scheme or any other smr.Scheme: E from its property sheet, R audited
// from a stalled reader's backlog on Harris's list, and A's Harris
// witness from the Figure 1 (churn figureK) and Figure 2 executions.
func Classify(f all.Factory, figureK int) (MatrixRow, error) {
	s := f(mem.NewArena(mem.Config{Slots: 1, PayloadWords: 1, MetaWords: smr.MetaWords, Threads: 1}), 1, 0)
	props := s.Props()
	row := MatrixRow{
		Scheme:               s.Name(),
		Integration:          ClassifyIntegration(s.Name(), props),
		ClaimedApplicability: props.Applicability,
	}
	row.Easy = row.Integration.Easy

	// R: at a 64-key prefix HE's and IBR's pinned plateau still fits the
	// robust budget, and a churn under ~280 keeps unbounded growth below
	// the weakly-robust scale (2·max_active ≈ 260 here).
	const prefill, churn = 128, 1024
	r, err := adversary.Figure1Of(f, prefill, prefill+churn, mem.Unmap)
	if err != nil {
		return row, err
	}
	row.Robustness = r.Audit
	row.Robust = r.Bounded

	f1, err := adversary.Figure1Of(f, 1, figureK, mem.Unmap)
	if err != nil {
		return row, err
	}
	f2, err := adversary.Figure2Of(f, mem.Unmap)
	if err != nil {
		return row, err
	}
	row.HarrisSafe = f1.Safe && f2.Safe
	claimedWide := props.Applicability == smr.WidelyApplicable ||
		props.Applicability == smr.StronglyApplicable
	row.Wide = claimedWide && row.HarrisSafe

	row.Consistent = r.Audit.Consistent() && !r.Audit.Inconclusive() &&
		claimedWide == row.HarrisSafe
	return row, nil
}

// BuildMatrix classifies every safe registered scheme. figureK <= 0
// selects a default churn.
func BuildMatrix(figureK int) (Matrix, error) {
	if figureK <= 0 {
		figureK = 600
	}
	m := Matrix{FigureK: figureK}
	for _, scheme := range all.SafeNames() {
		row, err := Classify(func(a *mem.Arena, n, t int) smr.Scheme { return all.MustNew(scheme, a, n, t) }, figureK)
		if err != nil {
			return m, fmt.Errorf("%s: %w", scheme, err)
		}
		m.Rows = append(m.Rows, row)
	}
	return m, nil
}
