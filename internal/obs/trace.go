package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs/rec"
	"repro/internal/telemetry"
)

// traceEvent is one Chrome trace-event (the chrome://tracing / Perfetto
// JSON format): ph "X" spans carry a dur, "i" instants a scope, "C"
// counters a numeric args map. Timestamps are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"otherData,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChromeTrace renders a recorder snapshot (plus, when given, the
// per-shard telemetry series as counter tracks) as a Chrome trace-event
// file: load it at chrome://tracing or ui.perfetto.dev. Each shard is a
// process row; faults and migrations appear as spans, verdict flips and
// guard trips as instants, and the retired backlog as a counter track.
func WriteChromeTrace(w io.Writer, events []rec.Event, series map[int][]telemetry.Point) error {
	evs := append([]rec.Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })

	var out []traceEvent
	pid := func(shard int) int { return shard + 1 } // pid 0 renders oddly

	// Span pairing state: fires await heals, migration starts await
	// done/fail.
	type open struct {
		idx int // index in out of the provisional span
	}
	openFault := map[[2]any]open{} // {shard, episode}
	openMig := map[int]open{}      // shard

	for _, ev := range evs {
		switch ev.Kind {
		case rec.KindFaultFire:
			out = append(out, traceEvent{
				Name: "fault:" + ev.Label, Ph: "X", Ts: us(ev.At), Dur: 0,
				Pid: pid(ev.Shard), Tid: 0,
				Args: map[string]any{"episode": ev.A, "intensity_milli": ev.B},
			})
			openFault[[2]any{ev.Shard, ev.A}] = open{idx: len(out) - 1}
		case rec.KindFaultHeal:
			if o, ok := openFault[[2]any{ev.Shard, ev.A}]; ok {
				out[o.idx].Dur = us(ev.At) - out[o.idx].Ts
				delete(openFault, [2]any{ev.Shard, ev.A})
			}
		case rec.KindMigrationStart:
			out = append(out, traceEvent{
				Name: "migrate:" + ev.Label, Ph: "X", Ts: us(ev.At), Dur: 0,
				Pid: pid(ev.Shard), Tid: 1,
			})
			openMig[ev.Shard] = open{idx: len(out) - 1}
		case rec.KindMigrationDone, rec.KindMigrationFail:
			if o, ok := openMig[ev.Shard]; ok {
				out[o.idx].Dur = us(ev.At) - out[o.idx].Ts
				if ev.Kind == rec.KindMigrationFail {
					out[o.idx].Name = "migrate-fail:" + ev.Label
				} else {
					out[o.idx].Args = map[string]any{"keys": ev.A, "swap_window_ns": ev.B}
				}
				delete(openMig, ev.Shard)
			}
		case rec.KindSMRScan:
			// Scan batches are dense; a per-thread instant each would
			// drown the view. Only reclaiming scans are worth a mark.
			if ev.B > 0 {
				out = append(out, traceEvent{
					Name: "scan", Ph: "i", Ts: us(ev.At), Pid: pid(ev.Shard),
					Tid: ev.Tid, S: "t",
					Args: map[string]any{"scanned": ev.A, "reclaimed": ev.B},
				})
			}
		default:
			out = append(out, traceEvent{
				Name: ev.Kind.String() + labelSuffix(ev.Label), Ph: "i",
				Ts: us(ev.At), Pid: pid(ev.Shard), Tid: ev.Tid, S: "p",
				Args: map[string]any{"a": ev.A, "b": ev.B},
			})
		}
	}

	// The retired backlog as a per-shard counter track: the trajectory
	// Definitions 5.1–5.2 are about, beside the events that bent it.
	var shards []int
	for s := range series {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		for _, p := range series[s] {
			out = append(out, traceEvent{
				Name: "retired", Ph: "C", Ts: us(p.Elapsed), Pid: pid(s),
				Args: map[string]any{"retired": p.Retired},
			})
		}
	}

	// Name the process rows.
	meta := make([]traceEvent, 0, len(shards)+1)
	named := map[int]bool{}
	for _, ev := range out {
		if ev.Pid > 0 && !named[ev.Pid] {
			named[ev.Pid] = true
			meta = append(meta, traceEvent{
				Name: "process_name", Ph: "M", Pid: ev.Pid,
				Args: map[string]any{"name": fmt.Sprintf("shard %d", ev.Pid-1)},
			})
		}
	}
	meta = append(meta, traceEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "service"},
	})

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{
		TraceEvents:     append(meta, out...),
		DisplayTimeUnit: "ms",
	})
}

func labelSuffix(l string) string {
	if l == "" {
		return ""
	}
	return ":" + l
}
