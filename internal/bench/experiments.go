package bench

import (
	"cmp"
	"fmt"
	"io"
	"time"

	"repro/internal/ds/drive"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/smr/all"
	"repro/internal/workload"
)

// ThroughputRow is one cell of EXP-THRU.
type ThroughputRow struct {
	Scheme    string       `json:"scheme"`
	Structure string       `json:"structure"`
	Threads   int          `json:"threads"`
	Mix       workload.Mix `json:"mix"`
	// Workload and Schedule name the key distribution and op-mix schedule
	// that drove the run.
	Workload string        `json:"workload"`
	Schedule string        `json:"schedule"`
	KeyRange int           `json:"key_range"`
	Ops      int           `json:"ops"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// MopsPerSec is the headline number.
	MopsPerSec float64 `json:"mops_per_sec"`
	// PeakRetired is the largest retired backlog over the whole cell
	// (prefill and warmup included — the backlog is cumulative state that
	// carries into the timed run, so the whole-cell peak is the honest
	// space cost accompanying the throughput).
	PeakRetired uint64 `json:"peak_retired"`
	// Restarts counts scheme rollbacks during the timed run only (the
	// integration price of the optimistic schemes).
	Restarts uint64 `json:"restarts"`
	// Symptom and Script are set when the cell is one registry.KnownRed
	// lists and it failed: the failure, and the drive.Script that replays
	// the failing threads' op sequences.
	Symptom string `json:"symptom,omitempty"`
	Script  string `json:"script,omitempty"`
}

// ThroughputResult is EXP-THRU's result: measured rows.
type ThroughputResult struct {
	Rows []ThroughputRow `json:"rows"`
}

// Gates: throughput rows are measurements, not claims.
func (ThroughputResult) Gates() []Gate { return nil }

// WriteTable renders throughput rows, each failed known-red cell followed
// by its symptom and script.
func (res ThroughputResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-11s %-16s %7s %9s %-18s %9s %10s %13s %9s\n",
		"scheme", "structure", "threads", "mix", "workload", "keyrange", "Mops/s", "peak-retired", "restarts")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-11s %-16s %7d %9s %-18s %9d %10.3f %13d %9d\n",
			r.Scheme, r.Structure, r.Threads, r.Mix, r.Workload+"/"+r.Schedule,
			r.KeyRange, r.MopsPerSec, r.PeakRetired, r.Restarts)
		if r.Symptom != "" {
			fmt.Fprintf(w, "    %s\n    %s\n", r.Symptom, r.Script)
		}
	}
}

func fmtLatency(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Nanosecond).String()
}

// ThroughputCell is one EXP-THRU measurement: a scheme on a set structure
// under a base mix at a thread count.
type ThroughputCell struct {
	Scheme, Structure string
	Mix               workload.Mix
	Threads           int
}

// ThroughputCells is EXP-THRU's cell list: every applicable safe scheme on
// structure × the three standard mixes × 1, 2 and 4 threads, then the
// Section 6 discussion's comparison (EXP-MICHAEL) — Harris's list under
// EBR against Michael's HP-compatible modification under HP and under EBR,
// update-only at 2 threads. The paper's point: forcing a data structure
// into the shape a protection scheme needs costs performance.
func ThroughputCells(structure string) []ThroughputCell {
	// An unknown structure admits every scheme; RunCell then rejects its
	// cells with the registry's listing.
	info, _ := registry.Get(structure)
	var cells []ThroughputCell
	for _, scheme := range all.SafeNames() {
		if p, _ := all.Props(scheme); !registry.Applicable(p, info) {
			continue
		}
		for _, mix := range []workload.Mix{workload.MixReadHeavy, workload.MixBalanced, workload.MixUpdateOnly} {
			for _, n := range []int{1, 2, 4} {
				cells = append(cells, ThroughputCell{scheme, structure, mix, n})
			}
		}
	}
	return append(cells,
		ThroughputCell{"ebr", "harris", workload.MixUpdateOnly, 2},
		ThroughputCell{"hp", "michael", workload.MixUpdateOnly, 2},
		ThroughputCell{"ebr", "michael", workload.MixUpdateOnly, 2})
}

// runThroughput is EXP-THRU: one sweep over ThroughputCells of the
// profile's structure.
func runThroughput(p Profile) (Result, error) {
	var res ThroughputResult
	for _, c := range ThroughputCells(cmp.Or(p.Structure, "harris")) {
		row, err := RunCell(c, p)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// RunCell measures c on a fresh heap at p's sizing, seed and workload: a
// one-thread insert-only script prefills about half the key range, an
// untimed steady warmup script runs a tenth of the timed ops, and a wall
// timer brackets the timed script. The cell fails when a script returns an
// error or the run is unsafe (drive.Env.Safe). A failed cell that
// registry.KnownRed lists yields a row carrying its symptom and script; any
// other failure is an error carrying the script.
func RunCell(c ThroughputCell, p Profile) (ThroughputRow, error) {
	info, err := registry.Get(c.Structure)
	if err != nil {
		return ThroughputRow{}, err
	}
	if info.Kind != registry.KindSet {
		return ThroughputRow{}, fmt.Errorf("bench: throughput runs on set structures, %s is a %v", c.Structure, info.Kind)
	}
	// A bad workload name is an error even on a known-red cell.
	if _, err := workload.New(workload.Config{Dist: p.Workload, Schedule: p.Schedule}); err != nil {
		return ThroughputRow{}, err
	}
	ops, keys := p.ops(), p.keyRange()
	timed := drive.Script{Threads: c.Threads, Ops: ops, KeyRange: keys, Mix: c.Mix, Dist: p.Workload, Schedule: p.Schedule, Seed: p.Seed}
	warmup := timed
	warmup.Ops, warmup.Schedule, warmup.Seed = ops/10, "", p.Seed^0xbadcafe
	prefill := drive.Script{Threads: 1, Ops: keys / 2, KeyRange: keys, Mix: workload.Mix{InsertPct: 100}, Seed: p.Seed ^ 0xf00d}
	// The heap fits every op an insert: a non-robust scheme under
	// oversubscription can hold reclamation back for a whole scheduling
	// quantum, and the leak baseline never reclaims.
	env, err := drive.NewEnv(c.Scheme, c.Threads, keys+c.Threads*(ops+warmup.Ops)+1024, info.PayloadWords, mem.Reuse)
	if err != nil {
		return ThroughputRow{}, err
	}
	target, err := drive.NewTarget(c.Structure, env.S)
	if err != nil {
		return ThroughputRow{}, err
	}
	row := ThroughputRow{
		Scheme: c.Scheme, Structure: c.Structure, Threads: c.Threads, Mix: c.Mix,
		Workload: cmp.Or(p.Workload, "uniform"), Schedule: cmp.Or(p.Schedule, "steady"),
		KeyRange: keys, Ops: c.Threads * ops,
	}
	var restarts uint64
	for _, s := range []drive.Script{prefill, warmup, timed} {
		restarts = env.S.Stats().Snapshot().Restarts
		start := time.Now()
		_, err := drive.Run(env, target, s)
		row.Elapsed = time.Since(start)
		if err = cmp.Or(err, env.Safe()); err == nil {
			continue
		}
		if red, ok := registry.IsKnownRed(c.Scheme, c.Structure); ok {
			row.Symptom, row.Script = fmt.Sprintf("known red (%s, since %s): %v", red.Symptom, red.Since, err), s.String()
			return row, nil
		}
		return row, fmt.Errorf("%s × %s: %w\n%v", c.Scheme, c.Structure, err, s)
	}
	row.MopsPerSec = float64(row.Ops) / row.Elapsed.Seconds() / 1e6
	row.PeakRetired = env.A.Stats().MaxRetired()
	row.Restarts = env.S.Stats().Snapshot().Restarts - restarts
	return row, nil
}
