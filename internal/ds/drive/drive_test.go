package drive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/ds/drive"
	"repro/internal/ds/registry"
	"repro/internal/mem"
	"repro/internal/workload"
)

// run builds a fresh ebr env and structure and runs s on them.
func run(t *testing.T, structure string, s drive.Script) drive.Result {
	t.Helper()
	info, err := registry.Get(structure)
	if err != nil {
		t.Fatal(err)
	}
	env, err := drive.NewEnv("ebr", 4, 1<<14, info.PayloadWords, mem.Reuse)
	if err != nil {
		t.Fatal(err)
	}
	target, err := drive.NewTarget(structure, env.S)
	if err != nil {
		t.Fatal(err)
	}
	res, err := drive.Run(env, target, s)
	if err != nil {
		t.Fatalf("%v\n%v", err, res.Script)
	}
	return res
}

// TestReplay: a script run at one P and again at two issues the same
// per-thread (kind, key, value) sequences — the scheduler decides only
// the interleaving, so a printed script replays its op sequences.
func TestReplay(t *testing.T) {
	for _, c := range []struct {
		structure string
		s         drive.Script
	}{
		{"harris", drive.Script{Threads: 4, Ops: 500, KeyRange: 32, Disjoint: true, Seed: 3}},
		{"hashmap-michael", drive.Script{Threads: 4, Ops: 512, KeyRange: 64, Batch: 64, Disjoint: true, Seed: 4}},
		{"michael", drive.Script{Threads: 4, Ops: 3, Rounds: 6, KeyRange: 8, Mix: workload.Mix{ContainsPct: 25, InsertPct: 50, DeletePct: 25}, Seed: 5}},
		{"msqueue", drive.Script{Threads: 4, Ops: 3, Rounds: 6, Seed: 6}},
	} {
		t.Run(c.structure, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			one := run(t, c.structure, c.s)
			runtime.GOMAXPROCS(2)
			two := run(t, c.structure, c.s)
			if len(one.Ops) != c.s.Threads {
				t.Fatalf("%d per-thread sequences, want %d", len(one.Ops), c.s.Threads)
			}
			for tid := range one.Ops {
				if len(one.Ops[tid]) != c.s.Ops*max(c.s.Rounds, 1) {
					t.Fatalf("T%d issued %d ops, want %d", tid, len(one.Ops[tid]), c.s.Ops*max(c.s.Rounds, 1))
				}
				if !reflect.DeepEqual(one.Ops[tid], two.Ops[tid]) {
					t.Fatalf("T%d's sequence differs between 1 and 2 Ps\n%v", tid, c.s)
				}
			}
		})
	}
}

// TestReplayWorkloads: two runs of one script issue the same per-thread
// sequences under every key distribution × op-mix schedule, free-running,
// in barrier-separated rounds, through fused batches and on disjoint keys.
func TestReplayWorkloads(t *testing.T) {
	for _, dist := range workload.DistNames() {
		for _, sched := range workload.ScheduleNames() {
			t.Run(dist+"/"+sched, func(t *testing.T) {
				for _, c := range []struct {
					structure string
					s         drive.Script
				}{
					{"michael", drive.Script{Threads: 3, Ops: 300, KeyRange: 64, Seed: 7}},
					{"harris", drive.Script{Threads: 3, Ops: 4, Rounds: 5, KeyRange: 8, Seed: 8}},
					{"hashmap-michael", drive.Script{Threads: 3, Ops: 256, KeyRange: 64, Batch: 32, Disjoint: true, Seed: 9}},
					{"treiber", drive.Script{Threads: 3, Ops: 100, Seed: 10}},
				} {
					c.s.Dist, c.s.Schedule = dist, sched
					one, two := run(t, c.structure, c.s), run(t, c.structure, c.s)
					if n := len(one.Ops[2]); n != c.s.Ops*max(c.s.Rounds, 1) {
						t.Fatalf("%s: T2 issued %d ops\n%v", c.structure, n, c.s)
					}
					if !reflect.DeepEqual(one.Ops, two.Ops) {
						t.Fatalf("%s: two runs issued different sequences\n%v", c.structure, c.s)
					}
				}
			})
		}
	}
}

// TestScriptString: String prints a Go literal that parses back into the
// same script, field by field.
func TestScriptString(t *testing.T) {
	want := drive.Script{Threads: 3, Ops: 7, Rounds: 2, KeyRange: 9, Mix: workload.Mix{ContainsPct: 50, InsertPct: 17, DeletePct: 33},
		Dist: "zipfian", Schedule: "phased", Batch: 5, Disjoint: true, Iterate: 4, Seed: 1<<63 + 11}
	src := want.String()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	var got drive.Script
	literal(t, e.(*ast.CompositeLit), reflect.ValueOf(&got).Elem())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s parsed back as %+v, want %+v", src, got, want)
	}
	if s := (drive.Script{}).String(); s != "drive.Script{}" {
		t.Errorf("zero script prints %s", s)
	}
}

// literal sets v's fields from a keyed composite literal of integer,
// string, boolean and nested composite values.
func literal(t *testing.T, lit *ast.CompositeLit, v reflect.Value) {
	t.Helper()
	for _, el := range lit.Elts {
		kv := el.(*ast.KeyValueExpr)
		f := v.FieldByName(kv.Key.(*ast.Ident).Name)
		switch x := kv.Value.(type) {
		case *ast.CompositeLit:
			literal(t, x, f)
		case *ast.Ident:
			f.SetBool(x.Name == "true")
		case *ast.BasicLit:
			if x.Kind == token.STRING {
				str, err := strconv.Unquote(x.Value)
				if err != nil {
					t.Fatal(err)
				}
				f.SetString(str)
				continue
			}
			n, err := strconv.ParseUint(x.Value, 0, 64)
			if err != nil {
				t.Fatal(err)
			}
			if f.Kind() == reflect.Uint64 {
				f.SetUint(n)
			} else {
				f.SetInt(int64(n))
			}
		}
	}
}
