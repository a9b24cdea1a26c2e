// Package none implements the no-reclamation baseline: retired nodes are
// never reclaimed.
//
// "none" is trivially safe (nothing is ever recycled, so every reference
// stays valid forever), trivially easy to integrate and strongly
// applicable — and maximally non-robust: the retired backlog equals the
// total number of retirements, and a long run exhausts the heap. It
// anchors the robustness axis of every experiment and isolates the cost of
// reclamation machinery in the throughput benches.
package none

import (
	"repro/internal/mem"
	"repro/internal/smr"
)

// None is the leak-everything baseline.
type None struct {
	smr.Base
}

var _ smr.Scheme = (*None)(nil)

// New builds a None instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *None {
	return &None{Base: smr.NewBase(a, n, threshold, nil)}
}

// Name implements smr.Scheme.
func (s *None) Name() string { return "none" }

// Props implements smr.Scheme.
func (s *None) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		Robustness:    smr.NotRobust,
		Applicability: smr.StronglyApplicable,
	}
}

// Retire marks the node retired and forgets it.
func (s *None) Retire(tid int, r mem.Ref) { _ = s.Arena.Retire(tid, r) }
