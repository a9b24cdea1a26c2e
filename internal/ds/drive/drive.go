// Package drive runs seeded concurrent scripts against the repository's
// sets, queues and stacks. It is the one driver behind every randomized
// structure test (ds/dstest) and the applicability check of Definition 5.4
// (core.CheckApplicability).
//
// A Script fixes the shape of a run. Thread tid's ops in round r are the
// internal/workload stream Source.Thread(tid+r*Threads, Ops) of the
// Script's distribution, schedule, mix and seed, so each thread's op
// sequence (kind, key, value) is a pure function of (Script, tid, round):
// the scheduler decides only the interleaving, and a Script printed by a
// failing test replays the same per-thread sequences when pasted back into
// one. The package does not import testing, so the ERA matrix and the
// throughput experiment can link it.
package drive

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"repro/internal/ds"
	"repro/internal/ds/registry"
	"repro/internal/hist"
	"repro/internal/mem"
	"repro/internal/smr"
	"repro/internal/smr/all"
	"repro/internal/workload"
)

// Env bundles an arena and a scheme instance for N threads over it.
type Env struct {
	A *mem.Arena
	S smr.Scheme
	N int
}

// NewEnv builds an arena of slots nodes and the named scheme over it.
func NewEnv(scheme string, n, slots, payloadWords int, mode mem.ReclaimMode) (*Env, error) {
	a := mem.NewArena(mem.Config{
		Slots:        slots,
		PayloadWords: payloadWords,
		MetaWords:    smr.MetaWords,
		Threads:      n,
		Mode:         mode,
	})
	s, err := all.New(scheme, a, n, 0)
	if err != nil {
		return nil, fmt.Errorf("building scheme %s: %w", scheme, err)
	}
	return &Env{A: a, S: s, N: n}, nil
}

// Target is what a script runs against: a ds.Set, ds.Queue or ds.Stack.
type Target interface{ Name() string }

// NewTarget builds the named registry structure over s.
func NewTarget(structure string, s smr.Scheme) (Target, error) {
	info, err := registry.Get(structure)
	if err != nil {
		return nil, err
	}
	switch info.Kind {
	case registry.KindQueue:
		return info.NewQueue(s, ds.Options{})
	case registry.KindStack:
		return info.NewStack(s, ds.Options{})
	}
	return info.NewSet(s, ds.Options{})
}

// Safe reports how the run so far violated Definition 4.2. Optimistic
// (rollback-requiring) schemes are allowed unsafe accesses provided the
// stale values never escape (VBR/NBR read reclaimed memory and discard the
// result; their update attempts through invalid pointers are guaranteed to
// fail); every other scheme must have performed only safe accesses.
// Segmentation faults (system-space accesses), life-cycle violations and
// stale value uses are never allowed.
func (e *Env) Safe() error {
	sn, stale := e.A.Stats().Snapshot(), e.S.Stats().Snapshot().StaleUses
	unsafe := sn.UnsafeAccesses()
	if e.S.Props().RequiresRollback {
		unsafe = 0
	}
	if unsafe+sn.Faults+sn.Violations+stale == 0 {
		return nil
	}
	return fmt.Errorf("%s: UNSAFE: %d unsafe accesses (loads=%d stores=%d), %d segmentation faults (Condition 1), "+
		"%d life-cycle violations, %d stale value uses (Condition 3)",
		e.S.Name(), unsafe, sn.UnsafeLoads, sn.UnsafeStores, sn.Faults, sn.Violations, stale)
}

// Script is the shape of one run.
type Script struct {
	// Threads is the number of goroutines, tids 0..Threads-1 (0: the
	// env's N).
	Threads int
	// Ops is each thread's op count per round.
	Ops int
	// Rounds > 0 runs that many barrier-separated rounds and keeps each
	// round's history as a window (Threads*Ops must stay within
	// hist.MaxCheckOps); 0 runs one free-running pass whose history is
	// recorded the same way but dropped.
	Rounds int
	// KeyRange bounds a set's keys to [0, KeyRange); with Disjoint it is
	// the number of keys each thread owns.
	KeyRange int
	// Mix is the base op mix the schedule modulates. On a queue or a stack
	// an insert is an enqueue or a push and the other two kinds a dequeue
	// or a pop. The zero Mix is workload.MixBalanced on a set and
	// workload.MixUpdateOnly on a queue or a stack.
	Mix workload.Mix
	// Dist and Schedule name the key distribution and the op-mix schedule
	// (internal/workload registry names); empty means uniform and steady.
	Dist     string
	Schedule string
	// Batch > 0 issues each thread's ops through ds.BatchSet as key-sorted
	// batches of that size, the arrangement the store's fused worker uses.
	Batch int
	// Disjoint gives thread t the keys Key(t, k) for k < KeyRange. Every
	// result is then checked against the thread's model, and after the run
	// the set's contents are checked against every model.
	Disjoint bool
	// Iterate > 0 turns thread 0 into a scanner: each round it runs that
	// many ds.Iterator scans instead of ops, the first from ds.KeyMin and
	// the rest from keys drawn from [0, KeyRange*Threads].
	//
	// Batch, Disjoint and Iterate need a set.
	Iterate int
	// Seed selects the op sequences.
	Seed uint64
}

// String renders s as a Go literal that can be pasted into a test.
func (s Script) String() string {
	var b strings.Builder
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(&b, ", %s: %#v", v.Type().Field(i).Name, f.Interface())
		}
	}
	return "drive.Script{" + strings.TrimPrefix(b.String(), ", ") + "}"
}

// Key is thread tid's k-th key under Disjoint. Every block of Threads
// consecutive keys holds one key of each thread, in an order drawn per
// block: the threads interleave along an ordered set, and one thread's
// keys still reach every bucket of a hash set with a power-of-two bucket
// count (tid itself as the offset would give each thread its own buckets).
func (s Script) Key(tid, k int) int64 {
	r := workload.RNG(k)
	return int64(k*s.Threads + (tid+r.Intn(s.Threads))%s.Threads)
}

// Op is one scripted operation. Key is a set op's key, or an enqueue's or
// push's value: tid<<32 | n, n counting the thread's ops from 1, so every
// value is unique. A dequeue or pop carries 0.
type Op struct {
	Kind hist.OpKind
	Key  int64
}

func (o Op) String() string { return fmt.Sprintf("%s(%d)", o.Kind, o.Key) }

// Scan is one of the scanner's passes: its lower bound and the keys it
// reported, in order.
type Scan struct {
	Lo   int64
	Keys []int64
}

// ErrNotLinearizable reports a recorded history no sequential order
// explains.
var ErrNotLinearizable = errors.New("history not linearizable")

// Result is what one Run observed.
type Result struct {
	// Script is the script run, defaults filled in.
	Script Script
	// Ops holds each thread's ops in issue order.
	Ops [][]Op
	// Windows holds each round's history, for hist.CheckChained.
	Windows [][]hist.Op
	// Models holds each thread's final model when Disjoint (nil for the
	// scanner).
	Models []map[int64]bool
	// Scans holds the scanner's passes when Iterate > 0.
	Scans []Scan
	// Arena is the arena's counters after the run.
	Arena mem.Snapshot
	spec  hist.Spec
}

// Linearizable checks the recorded windows against the target's sequential
// specification; nil means linearizable.
func (r Result) Linearizable() error {
	if len(r.Windows) == 0 {
		return nil
	}
	ok, err := hist.CheckChained(r.spec, r.Windows)
	if err == nil && !ok {
		err = ErrNotLinearizable
	}
	return err
}

type driver struct {
	s     Script
	src   *workload.Source
	set   ds.Set
	put   func(tid int, v int64) error
	take  func(tid int) (int64, bool, error)
	kinds [3]hist.OpKind // indexed by workload.Op
	rec   *hist.Recorder
	res   Result
}

// Run executes s against target on env, one goroutine per thread. Its
// error is the first op that failed or disagreed with its thread's model;
// safety and linearizability are left to the caller (Env.Safe,
// Result.Linearizable).
func Run(env *Env, target Target, s Script) (Result, error) {
	d := &driver{}
	switch t := target.(type) {
	case ds.Set:
		d.set, d.kinds, d.res.spec = t, [3]hist.OpKind{hist.OpContains, hist.OpInsert, hist.OpDelete}, hist.SetSpec{}
	case ds.Queue:
		d.put, d.take, d.res.spec = t.Enqueue, t.Dequeue, hist.QueueSpec{}
		d.kinds = [3]hist.OpKind{hist.OpDequeue, hist.OpEnqueue, hist.OpDequeue}
	case ds.Stack:
		d.put, d.take, d.res.spec = t.Push, t.Pop, hist.StackSpec{}
		d.kinds = [3]hist.OpKind{hist.OpPop, hist.OpPush, hist.OpPop}
	default:
		return d.res, fmt.Errorf("drive: %T is not a set, a queue or a stack", target)
	}
	if s.Threads <= 0 {
		s.Threads = env.N
	}
	if s.Mix == (workload.Mix{}) {
		s.Mix = workload.MixUpdateOnly
		if d.set != nil {
			s.Mix = workload.MixBalanced
		}
	}
	src, err := workload.New(workload.Config{Dist: s.Dist, Schedule: s.Schedule, KeyRange: s.KeyRange, Mix: s.Mix, Seed: s.Seed})
	if err != nil {
		return d.res, err
	}
	d.s, d.src, d.res.Script, d.res.Ops = s, src, s, make([][]Op, s.Threads)
	for tid := range d.res.Ops {
		d.res.Ops[tid] = make([]Op, 0, s.Ops*max(s.Rounds, 1))
	}
	if s.Disjoint {
		d.res.Models = make([]map[int64]bool, s.Threads)
		for tid := min(s.Iterate, 1); tid < s.Threads; tid++ {
			d.res.Models[tid] = make(map[int64]bool)
		}
	}
	d.rec = hist.NewRecorder(s.Threads, s.Ops)
	errs := make([]error, s.Threads)
	for round := 0; round < max(s.Rounds, 1); round++ {
		var wg sync.WaitGroup
		for tid := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[tid] = d.thread(tid, round)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return d.res, err
		}
		if s.Rounds > 0 {
			d.res.Windows = append(d.res.Windows, d.rec.History())
			d.rec.Reset()
		}
	}
	d.res.Arena = env.A.Stats().Snapshot()
	return d.res, d.final()
}

// op draws thread tid's i-th op of round from its stream.
func (d *driver) op(st *workload.Stream, tid, round, i int) Op {
	kind, key := st.Next()
	op := Op{Kind: d.kinds[kind]}
	switch {
	case op.Kind == hist.OpEnqueue || op.Kind == hist.OpPush:
		op.Key = int64(tid)<<32 | int64(round*d.s.Ops+i+1)
	case d.set != nil:
		op.Key = key
		if d.s.Disjoint {
			op.Key = d.s.Key(tid, int(key))
		}
	}
	return op
}

func (d *driver) thread(tid, round int) error {
	s := d.s
	if s.Iterate > 0 && tid == 0 {
		return d.scan(round)
	}
	st := d.src.Thread(tid+round*s.Threads, s.Ops)
	// Appending to a local header keeps the threads off each other's cache
	// line in d.res.Ops.
	issued := d.res.Ops[tid]
	defer func() { d.res.Ops[tid] = issued }()
	step := max(s.Batch, 1)
	for i := 0; i < s.Ops; i += step {
		from := len(issued)
		for j := i; j < min(i+step, s.Ops); j++ {
			issued = append(issued, d.op(st, tid, round, j))
		}
		ops := issued[from:]
		var err error
		if s.Batch > 0 {
			sort.SliceStable(ops, func(a, b int) bool { return ops[a].Key < ops[b].Key })
			err = d.batch(tid, ops)
		} else {
			err = d.one(tid, ops[0])
		}
		if err != nil {
			return fmt.Errorf("T%d round %d op %d: %w", tid, round, i, err)
		}
	}
	return nil
}

func (d *driver) one(tid int, op Op) error {
	p := d.rec.Begin(tid, op.Kind, op.Key)
	ok, val, err := true, int64(0), error(nil)
	switch op.Kind {
	case hist.OpInsert:
		ok, err = d.set.Insert(tid, op.Key)
	case hist.OpDelete:
		ok, err = d.set.Delete(tid, op.Key)
	case hist.OpContains:
		ok, err = d.set.Contains(tid, op.Key)
	case hist.OpEnqueue, hist.OpPush:
		err = d.put(tid, op.Key)
	default:
		val, ok, err = d.take(tid)
	}
	if err != nil {
		return fmt.Errorf("%v: %w", op, err)
	}
	d.rec.End(tid, p, ok, val)
	return d.model(tid, op, ok)
}

var batchKinds = [...]ds.BatchKind{hist.OpInsert: ds.BatchInsert, hist.OpDelete: ds.BatchDelete, hist.OpContains: ds.BatchContains}

func (d *driver) batch(tid int, ops []Op) error {
	bs, ok := d.set.(ds.BatchSet)
	if !ok {
		return fmt.Errorf("drive: %T has no fused batch path", d.set)
	}
	bops, res := make([]ds.BatchOp, len(ops)), make([]ds.BatchResult, len(ops))
	for i, op := range ops {
		bops[i] = ds.BatchOp{Kind: batchKinds[op.Kind], Key: op.Key}
	}
	bs.ApplyBatch(tid, bops, res)
	for i, op := range ops {
		if res[i].Err != nil {
			return fmt.Errorf("batch op %d %v: %w", i, op, res[i].Err)
		}
		if err := d.model(tid, op, res[i].OK); err != nil {
			return fmt.Errorf("batch op %d %w", i, err)
		}
	}
	return nil
}

// model checks a disjoint set op's result against the thread's model.
func (d *driver) model(tid int, op Op, ok bool) error {
	if d.res.Models == nil {
		return nil
	}
	m := d.res.Models[tid]
	want := m[op.Key]
	switch op.Kind {
	case hist.OpInsert:
		want = !want
		m[op.Key] = true
	case hist.OpDelete:
		delete(m, op.Key)
	}
	if ok != want {
		return fmt.Errorf("%v = %v, the thread's model says %v", op, ok, want)
	}
	return nil
}

func (d *driver) scan(round int) error {
	it, ok := d.set.(ds.Iterator)
	if !ok {
		return fmt.Errorf("drive: %T is not a ds.Iterator", d.set)
	}
	for i := 0; i < d.s.Iterate; i++ {
		sc := Scan{Lo: ds.KeyMin}
		if i > 0 {
			r := workload.RNG(d.s.Seed + uint64(round)<<32 + uint64(i))
			sc.Lo = int64(r.Intn(d.s.KeyRange*d.s.Threads + 1))
		}
		if err := it.IterateFrom(0, sc.Lo, func(k int64) bool { sc.Keys = append(sc.Keys, k); return true }); err != nil {
			return fmt.Errorf("T0 round %d scan from %d: %w", round, sc.Lo, err)
		}
		d.res.Scans = append(d.res.Scans, sc)
	}
	return nil
}

// final checks, single-threaded, that one scan of a disjoint set reports
// exactly what each thread's model holds among the keys it owns.
func (d *driver) final() error {
	if d.res.Models == nil {
		return nil
	}
	it, ok := d.set.(ds.Iterator)
	if !ok {
		return fmt.Errorf("drive: %T is not a ds.Iterator", d.set)
	}
	have := make(map[int64]bool)
	if err := it.Iterate(0, func(k int64) bool { have[k] = true; return true }); err != nil {
		return fmt.Errorf("final scan: %w", err)
	}
	for tid, m := range d.res.Models {
		for k := 0; m != nil && k < d.s.KeyRange; k++ {
			if key := d.s.Key(tid, k); have[key] != m[key] {
				return fmt.Errorf("final contents: %d present %v, T%d's model says %v", key, have[key], tid, m[key])
			}
		}
	}
	return nil
}
