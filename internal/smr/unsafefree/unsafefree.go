// Package unsafefree implements the failure-injection baseline: retire()
// reclaims immediately, with no protection whatsoever.
//
// It is *not* a safe memory reclamation scheme (Definition 4.2): any
// concurrent reader of a retired node dereferences reclaimed memory. The
// baseline exists to validate the monitors — every experiment must detect
// its unsafety — and to measure the ceiling of reclamation eagerness.
package unsafefree

import (
	"repro/internal/mem"
	"repro/internal/smr"
)

// Free is the immediate-free baseline.
type Free struct {
	smr.Base
}

var _ smr.Scheme = (*Free)(nil)

// New builds a Free instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *Free {
	return &Free{Base: smr.NewBase(a, n, threshold, nil)}
}

// Name implements smr.Scheme.
func (s *Free) Name() string { return "unsafefree" }

// Props implements smr.Scheme.
func (s *Free) Props() smr.Props {
	return smr.Props{
		SelfContained: true,
		Robustness:    smr.Robust, // the backlog is always zero
		Applicability: smr.Unsafe,
	}
}

// Retire reclaims immediately.
func (s *Free) Retire(tid int, r mem.Ref) {
	if s.Arena.Retire(tid, r) != nil {
		return
	}
	_ = s.Arena.Reclaim(tid, r)
}
