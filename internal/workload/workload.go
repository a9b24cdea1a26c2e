// Package workload composes benchmark scenarios from two orthogonal,
// by-name-selectable parts: a key distribution (which keys an operation
// stream touches) and an op-mix schedule (which operations it performs,
// possibly changing over the run). The seeded driver (internal/ds/drive)
// asks a Source for one Stream per thread and round and drives its data
// structure from the stream, so a new scenario is a registry entry — data,
// not harness code.
//
// The built-in distributions are uniform, zipfian (YCSB-style scrambled
// zipf, theta 0.99), hotset (90% of operations on 10% of the keys), and
// shifting (a uniform window that slides across the key space as the run
// progresses — churn in the working set). The built-in schedules are
// steady (a constant mix), phased (alternating read-burst and base-mix
// phases), and oversub (a steady mix with forced processor yields,
// standing in for more runnable threads than cores).
package workload

import (
	"encoding/json"
	"fmt"
	"runtime"
)

// Op is an abstract set operation drawn from a stream.
type Op uint8

// Operations of the set abstract data type, in mix order.
const (
	OpContains Op = iota
	OpInsert
	OpDelete
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	}
	return "contains"
}

// Mix is an operation mix in percent; the three fields must sum to 100.
type Mix struct {
	ContainsPct int
	InsertPct   int
	DeletePct   int
}

// String renders the mix as "c/i/d".
func (m Mix) String() string {
	return fmt.Sprintf("%d/%d/%d", m.ContainsPct, m.InsertPct, m.DeletePct)
}

// Validate reports whether the mix is a well-formed percentage triple:
// non-negative components summing to 100.
func (m Mix) Validate() error {
	if m.ContainsPct < 0 || m.InsertPct < 0 || m.DeletePct < 0 {
		return fmt.Errorf("workload: mix %v has a negative component", m)
	}
	if sum := m.ContainsPct + m.InsertPct + m.DeletePct; sum != 100 {
		return fmt.Errorf("workload: mix %v sums to %d, want 100", m, sum)
	}
	return nil
}

// MarshalJSON renders the mix as its "c/i/d" string.
func (m Mix) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", m.String())), nil
}

// UnmarshalJSON parses the "c/i/d" string form.
func (m *Mix) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	parsed, err := ParseMix(s)
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseMix parses a "c/i/d" percentage triple.
func ParseMix(s string) (Mix, error) {
	var m Mix
	if _, err := fmt.Sscanf(s, "%d/%d/%d", &m.ContainsPct, &m.InsertPct, &m.DeletePct); err != nil {
		return Mix{}, fmt.Errorf("workload: mix %q is not c/i/d percentages: %v", s, err)
	}
	if err := m.Validate(); err != nil {
		return Mix{}, err
	}
	return m, nil
}

// Standard mixes used across the experiments (read-heavy, mixed,
// update-only), matching the sweeps in the IBR/NBR/VBR evaluations.
var (
	MixReadHeavy  = Mix{90, 5, 5}
	MixBalanced   = Mix{50, 25, 25}
	MixUpdateOnly = Mix{0, 50, 50}
)

// Config names a workload: a key distribution and an op-mix schedule by
// registry name, plus their shared parameters.
type Config struct {
	// Dist is the key distribution name; empty selects "uniform".
	Dist string
	// Schedule is the op-mix schedule name; empty selects "steady".
	Schedule string
	// KeyRange is the key universe size [0, KeyRange).
	KeyRange int
	// Mix is the base operation mix the schedule modulates.
	Mix Mix
	// Seed makes every stream deterministic.
	Seed uint64
}

// Source builds per-thread operation streams for one workload.
type Source struct {
	dist  Dist
	sched Schedule
	cfg   Config
}

// New resolves the named distribution and schedule into a Source.
func New(cfg Config) (*Source, error) {
	if cfg.Dist == "" {
		cfg.Dist = "uniform"
	}
	if cfg.Schedule == "" {
		cfg.Schedule = "steady"
	}
	if cfg.KeyRange <= 0 {
		cfg.KeyRange = 1024
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = MixBalanced
	}
	if err := cfg.Mix.Validate(); err != nil {
		return nil, err
	}
	dist, err := NewDist(cfg.Dist, cfg.KeyRange)
	if err != nil {
		return nil, err
	}
	sched, err := NewSchedule(cfg.Schedule, cfg.Mix)
	if err != nil {
		return nil, err
	}
	return &Source{dist: dist, sched: sched, cfg: cfg}, nil
}

// Config returns the resolved configuration.
func (s *Source) Config() Config { return s.cfg }

// Thread returns thread tid's operation stream of the given length. Streams
// for distinct (tid, seed) pairs are independent and deterministic.
func (s *Source) Thread(tid, total int) *Stream {
	return &Stream{
		src:   s,
		rng:   RNG(s.cfg.Seed + uint64(tid)<<32),
		total: total,
		yield: s.sched.YieldEvery(),
	}
}

// Stream is one thread's deterministic operation sequence.
type Stream struct {
	src   *Source
	rng   RNG
	i     int
	total int
	yield int
}

// Next draws the stream's next operation and key. After the declared total
// the stream keeps drawing with the final phase's mix.
func (st *Stream) Next() (Op, int64) {
	mix := st.src.sched.MixAt(st.i, st.total)
	roll := int(st.rng.Next() % 100)
	var op Op
	switch {
	case roll < mix.ContainsPct:
		op = OpContains
	case roll < mix.ContainsPct+mix.InsertPct:
		op = OpInsert
	default:
		op = OpDelete
	}
	key := st.src.dist.Key(&st.rng, st.i, st.total)
	st.i++
	if st.yield > 0 && st.i%st.yield == 0 {
		// The oversubscription schedule: give up the processor mid-quantum,
		// as a descheduled thread on an oversubscribed box would.
		runtime.Gosched()
	}
	return op, key
}
