package rec

import (
	"encoding/json"
	"sync"
	"testing"
)

// All events on one shard land in one stripe, so overflow semantics are
// exact: capacity C, N appends → the last C survive oldest-first and the
// drop counter reads N−C.
func TestRecorderOverflowOldestDropped(t *testing.T) {
	const cap, n = 8, 29
	r := NewRecorder(NewClock(), cap)
	for i := 0; i < n; i++ {
		r.Record(KindMark, 3, 0, uint64(i), 0, "")
	}
	if got, want := r.Drops(), uint64(n-cap); got != want {
		t.Fatalf("Drops() = %d, want exactly %d", got, want)
	}
	if got, want := r.Total(), uint64(n); got != want {
		t.Fatalf("Total() = %d, want %d", got, want)
	}
	evs := r.Snapshot()
	if len(evs) != cap {
		t.Fatalf("Snapshot() kept %d events, want %d", len(evs), cap)
	}
	for i, ev := range evs {
		if want := uint64(n - cap + i); ev.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest must be dropped first)", i, ev.A, want)
		}
	}
}

func TestRecorderNoDropsUnderCapacity(t *testing.T) {
	r := NewRecorder(nil, 16)
	for i := 0; i < 16; i++ {
		r.Record(KindSMRScan, i%4, 0, 1, 1, "")
	}
	if d := r.Drops(); d != 0 {
		t.Fatalf("Drops() = %d before any wrap", d)
	}
	if got := r.Len(); got != 16 {
		t.Fatalf("Len() = %d, want 16", got)
	}
}

// Concurrent appenders across shards plus snapshot/drop readers; run
// under -race. Counters must balance exactly: buffered + dropped = total.
func TestRecorderConcurrent(t *testing.T) {
	const goroutines, per = 8, 500
	r := NewRecorder(NewClock(), 64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(KindSMRScan, g, g, uint64(i), 0, "")
				if i%100 == 0 {
					_ = r.Snapshot()
					_ = r.Drops()
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := r.Total(), uint64(goroutines*per); got != want {
		t.Fatalf("Total() = %d, want %d", got, want)
	}
	if got, want := uint64(r.Len())+r.Drops(), r.Total(); got != want {
		t.Fatalf("Len()+Drops() = %d, want Total() = %d", got, want)
	}
	evs := r.Snapshot()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("Snapshot() out of order at %d: %v after %v", i, evs[i].At, evs[i-1].At)
		}
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(KindMark, 0, 0, 0, 0, "")
	if r.Snapshot() != nil || r.Drops() != 0 || r.Total() != 0 || r.Len() != 0 {
		t.Fatal("nil recorder must read as empty")
	}
	var c *Clock
	if c.Now() != 0 {
		t.Fatal("nil clock must read zero")
	}
}

// The artifact files serialize kinds by name; every kind must survive a
// JSON round trip and unknown names must be rejected.
func TestKindJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < kindCount; k++ {
		b, err := json.Marshal(Event{Kind: k, Shard: 1})
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			t.Fatalf("unmarshal %v: %v", k, err)
		}
		if ev.Kind != k {
			t.Fatalf("kind %v round-tripped to %v", k, ev.Kind)
		}
	}
	var ev Event
	if err := json.Unmarshal([]byte(`{"kind":"no-such-kind"}`), &ev); err == nil {
		t.Fatal("unknown kind name must fail to unmarshal")
	}
}

func TestClockMonotone(t *testing.T) {
	c := NewClock()
	a := c.Now()
	b := c.Now()
	if b < a || a < 0 {
		t.Fatalf("clock went backwards: %v then %v", a, b)
	}
}
