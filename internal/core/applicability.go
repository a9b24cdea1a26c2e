package core

import (
	"errors"
	"fmt"

	"repro/internal/ds"
	"repro/internal/ds/drive"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/workload"
)

// ApplicabilityReport is the Definition 5.4 verdict for one
// (scheme, structure) pair on one randomized concurrent run.
type ApplicabilityReport struct {
	Scheme    string
	Structure string
	// Safety is condition (1): the scheme is safe with respect to the
	// plain implementation.
	Safety SafetyReport
	// Linearizable is condition (2): the integrated implementation is
	// linearizable.
	Linearizable bool
	// Completed is the progress proxy for condition (3): every operation
	// returned without the structure detecting corruption or livelock.
	// (Lock-freedom itself is not decidable from a finite run; the
	// deterministic adversary executions cover the negative cases.)
	Completed bool
	// Applicable is the conjunction.
	Applicable bool
	// Detail carries the first failure description.
	Detail string
}

// ApplicabilityScripts returns CheckApplicability's scripts for seed: an
// unrecorded stress of 4 threads × 4000 ops over 8 keys, which is what
// surfaces safety violations (condition 1 of Definition 5.4: use-after-free
// needs sustained concurrency, not barrier-separated bursts), then 8
// recorded rounds of 4 threads × 3 ops for the linearizability check.
func ApplicabilityScripts(seed uint64) (stress, rounds drive.Script) {
	return drive.Script{Threads: 4, Ops: 4000, KeyRange: 8, Seed: seed},
		drive.Script{Threads: 4, Ops: 3, Rounds: 8, KeyRange: 8, Seed: seed}
}

// CheckApplicability evaluates Definition 5.4 for the pair on one
// structure instance: it runs stress, then drains the structure on one
// thread (one delete, dequeue or pop per stress op, which walks whatever
// the stress left, damage included), then runs rounds from the empty
// state. A stress with no ops skips both. It validates the positive
// direction (Appendix A: EBR is applicable to everything); the negative
// direction for the protection-based schemes is deterministic only under
// the adversary executions, which the ERA matrix combines with this check.
// A failing report's Detail ends with both scripts.
func CheckApplicability(scheme, structure string, stress, rounds drive.Script) (ApplicabilityReport, error) {
	info, err := registry.Get(structure)
	if err != nil {
		return ApplicabilityReport{}, err
	}
	env, err := drive.NewEnv(scheme, max(stress.Threads, rounds.Threads, 1), 1<<15, info.PayloadWords, mem.Reuse)
	if err != nil {
		return ApplicabilityReport{}, err
	}
	target, err := drive.NewTarget(structure, env.S)
	if err != nil {
		return ApplicabilityReport{}, err
	}
	rep := ApplicabilityReport{Scheme: scheme, Structure: structure, Completed: true, Linearizable: true}
	drain := drive.Script{Threads: 1, Ops: stress.Threads * stress.Ops, KeyRange: stress.KeyRange, Mix: workload.Mix{DeletePct: 100}}
	for _, s := range []drive.Script{stress, drain, rounds} {
		if s.Ops == 0 {
			continue
		}
		res, err := drive.Run(env, target, s)
		if err != nil {
			rep.Completed, rep.Linearizable = false, false
			rep.Detail = "operation failed: " + err.Error()
			if errors.Is(err, ds.ErrCorrupted) {
				rep.Detail = "structure corrupted (livelock or recycled-memory cycle)"
			}
			break
		}
		if err := res.Linearizable(); err != nil {
			if !errors.Is(err, drive.ErrNotLinearizable) {
				return rep, err
			}
			rep.Linearizable, rep.Detail = false, err.Error()
			break
		}
	}
	rep.Safety = Safety(env.A, env.S)
	if !rep.Safety.Safe() && rep.Detail == "" {
		rep.Detail = rep.Safety.String()
	}
	rep.Applicable = rep.Safety.Safe() && rep.Linearizable && rep.Completed
	if !rep.Applicable {
		rep.Detail += fmt.Sprintf(" after %v then %v", stress, rounds)
	}
	return rep, nil
}
