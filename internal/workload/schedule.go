package workload

import (
	"fmt"
	"sort"
)

// Schedule modulates the operation mix over the life of a stream.
type Schedule interface {
	// Name is the registry key.
	Name() string
	// MixAt returns the mix in force at operation i of a total-operation
	// stream.
	MixAt(i, total int) Mix
	// YieldEvery returns k > 0 when the schedule simulates an
	// oversubscribed machine by yielding the processor every k operations;
	// 0 means never.
	YieldEvery() int
}

// ScheduleFactory builds a schedule around a base mix.
type ScheduleFactory func(base Mix) Schedule

var schedules = map[string]ScheduleFactory{
	"steady":  func(base Mix) Schedule { return steady{base: base} },
	"phased":  func(base Mix) Schedule { return phased{base: base, phases: 8} },
	"oversub": func(base Mix) Schedule { return oversub{base: base, every: 64} },
}

// ScheduleNames returns every registered schedule name, sorted.
func ScheduleNames() []string {
	names := make([]string, 0, len(schedules))
	for n := range schedules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewSchedule builds the named schedule around base.
func NewSchedule(name string, base Mix) (Schedule, error) {
	f, ok := schedules[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown schedule %q (have %v)", name, ScheduleNames())
	}
	return f(base), nil
}

// --- steady -----------------------------------------------------------------

type steady struct{ base Mix }

func (steady) Name() string         { return "steady" }
func (s steady) MixAt(_, _ int) Mix { return s.base }
func (steady) YieldEvery() int      { return 0 }

// --- phased -----------------------------------------------------------------

// phased alternates read-burst phases (96% contains) with base-mix phases,
// the diurnal read-burst shape: reclamation schemes accumulate retirements
// during the update phases and must drain them under read pressure.
type phased struct {
	base   Mix
	phases int
}

// MixReadBurst is the mix of the read phases of the phased schedule.
var MixReadBurst = Mix{96, 2, 2}

func (phased) Name() string { return "phased" }

func (p phased) MixAt(i, total int) Mix {
	if total <= 0 {
		return p.base
	}
	phase := i * p.phases / total
	if phase >= p.phases {
		phase = p.phases - 1
	}
	if phase%2 == 0 {
		return MixReadBurst
	}
	return p.base
}

func (phased) YieldEvery() int { return 0 }

// --- oversub ----------------------------------------------------------------

// oversub runs the base mix but surrenders the processor every few
// operations, the behaviour of a thread on a machine with more runnable
// threads than cores. Schemes whose bounds depend on threads making
// progress (epochs advancing, scans completing) feel this schedule the
// most — it is the benign cousin of the paper's fully stalled thread.
type oversub struct {
	base  Mix
	every int
}

func (oversub) Name() string         { return "oversub" }
func (o oversub) MixAt(_, _ int) Mix { return o.base }
func (o oversub) YieldEvery() int    { return o.every }
