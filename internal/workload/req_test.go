package workload

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestReqMixParseRoundTrip(t *testing.T) {
	m, err := ParseReqMix("50/20/10/10/5/5")
	if err != nil {
		t.Fatal(err)
	}
	if m != ReqMixMixed {
		t.Fatalf("parsed %v, want %v", m, ReqMixMixed)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back ReqMix
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("JSON round trip: %v != %v", back, m)
	}
	for _, bad := range []string{"50/50/10/10/5/5", "101/0/0/0/0/-1", "nope"} {
		if _, err := ParseReqMix(bad); err == nil {
			t.Fatalf("ParseReqMix(%q) accepted an invalid mix", bad)
		}
	}
	for _, std := range []ReqMix{ReqMixFanout, ReqMixMixed, ReqMixRangeHeavy} {
		if err := std.Validate(); err != nil {
			t.Fatalf("standard mix %v invalid: %v", std, err)
		}
	}
}

// TestReqStreamDeterministicAndShaped checks that equal (seed, tid) pairs
// replay identical request sequences, distinct tids diverge, every drawn
// request is well-formed, and a long draw covers every shape the mix
// names.
func TestReqStreamDeterministicAndShaped(t *testing.T) {
	cfg := ReqConfig{Dist: "zipfian", KeyRange: 2048, Mix: ReqMixMixed, Seed: 9}
	src, err := NewReqSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resolved := src.cfg
	a, b := src.Thread(0, 1000), src.Thread(0, 1000)
	other := src.Thread(1, 1000)
	seen := map[ReqKind]int{}
	diverged := false
	for i := 0; i < 1000; i++ {
		ra, rb, ro := a.Next(), b.Next(), other.Next()
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("draw %d: same (seed,tid) diverged: %+v vs %+v", i, ra, rb)
		}
		if !reflect.DeepEqual(ra, ro) {
			diverged = true
		}
		seen[ra.Kind]++
		switch ra.Kind {
		case ReqPoint:
			if len(ra.Ops) != resolved.BatchSize || len(ra.Keys) != resolved.BatchSize {
				t.Fatalf("point request sized %d/%d, want %d", len(ra.Ops), len(ra.Keys), resolved.BatchSize)
			}
		case ReqMultiGet, ReqMultiInsert, ReqMultiDelete:
			if len(ra.Keys) != resolved.MultiSize {
				t.Fatalf("multi request sized %d, want %d", len(ra.Keys), resolved.MultiSize)
			}
			for _, k := range ra.Keys {
				if k < 0 || k >= int64(resolved.KeyRange) {
					t.Fatalf("multi key %d outside universe", k)
				}
			}
		case ReqRangeScan, ReqRangeCount:
			if ra.Lo < 0 || ra.Hi > int64(resolved.KeyRange) || ra.Hi-ra.Lo != int64(resolved.RangeSpan) {
				t.Fatalf("range [%d,%d) malformed for span %d", ra.Lo, ra.Hi, resolved.RangeSpan)
			}
		}
	}
	if !diverged {
		t.Fatal("distinct tids drew identical sequences")
	}
	for k := ReqPoint; k < reqKindCount; k++ {
		if seen[k] == 0 {
			t.Fatalf("1000 mixed draws never produced %v", k)
		}
	}
}

func TestReqSourceRejectsBadConfig(t *testing.T) {
	if _, err := NewReqSource(ReqConfig{Dist: "no-such-dist"}); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := NewReqSource(ReqConfig{Mix: ReqMix{PointPct: 99}}); err == nil {
		t.Fatal("non-100 mix accepted")
	}
}
