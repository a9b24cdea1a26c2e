// Package vbr implements version-based reclamation in the style of
// Sheffi, Herlihy & Petrank (DISC 2021).
//
// VBR is fully optimistic: nodes are reclaimed *immediately* when the
// retire list fills — no grace periods, no per-pointer protection — and
// correctness is recovered by versioning. Every reference carries the
// version (allocation sequence number) of the node it was created for;
// every read validates the version after loading and every update is
// version-checked so that updates through stale references are guaranteed
// to fail. When validation fails the operation rolls back to its
// checkpoint (in this codebase: the operation entry point) and re-executes.
//
// In the simulation the arena's tagged references *are* the version
// mechanism: the tag is the node version, reads through stale tags return
// mem.ErrInvalid, and the arena's CAS refuses updates through invalid
// references (standing in for the wide CAS the real scheme needs — see
// DESIGN.md). This gives VBR the strongest robustness in the repository
// (the retired backlog never exceeds the retire-list threshold per thread)
// and wide applicability, at the price of rollbacks: it is not easily
// integrated per Definition 5.3.
package vbr

import (
	"repro/internal/mem"
	"repro/internal/smr"
)

// VBR is the version-based reclamation scheme. Its updates are
// smr.Validating's.
type VBR struct {
	smr.Validating
}

var _ smr.Scheme = (*VBR)(nil)

// New builds a VBR instance over arena a for n threads.
func New(a *mem.Arena, n, threshold int) *VBR {
	v := &VBR{}
	v.Base = smr.NewBase(a, n, threshold, v.scan)
	return v
}

// Name implements smr.Scheme.
func (v *VBR) Name() string { return "vbr" }

// Props implements smr.Scheme.
func (v *VBR) Props() smr.Props {
	return smr.Props{
		RequiresRollback: true,
		SelfContained:    false, // real VBR relies on a wide CAS
		TypePreserving:   true,  // stale reads must land in program space
		MetaWordsUsed:    1,     // the version (the arena tag in this simulation)
		Robustness:       smr.Robust,
		Applicability:    smr.WidelyApplicable,
	}
}

// scan reclaims the thread's whole retire list, immediately. This is the
// scheme's robustness: the backlog per thread never exceeds the
// threshold. Type preservation comes from the arena: slots are recycled
// with their metadata intact.
func (v *VBR) scan(tid int) { v.Compact(tid, func(mem.Ref) bool { return false }) }

// Read loads and then validates the version. A stale read is discarded and
// the operation is rolled back, satisfying Definition 4.2: the value read
// through an invalid pointer is never used.
func (v *VBR) Read(tid int, r mem.Ref, w int) (uint64, bool) {
	val, err := v.Arena.Load(tid, r.WithoutMark(), w)
	if err != nil {
		v.S.Restarts.Add(1)
		return 0, false
	}
	return val, true
}

// ReadPtr implements smr.Scheme; same validation as Read. The promoted
// Base.ReadPtr would call Base.Read instead.
func (v *VBR) ReadPtr(tid, idx int, src mem.Ref, w int) (mem.Ref, bool) {
	val, ok := v.Read(tid, src, w)
	return mem.Ref(val), ok
}
