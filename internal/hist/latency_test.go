package hist

import (
	"testing"
	"time"
)

func TestLatencyEmpty(t *testing.T) {
	var l Latency
	if l.Percentile(0.5) != 0 || l.count != 0 {
		t.Fatal("empty histogram must report zero")
	}
}

func TestLatencyBucketRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{
		0, 1, 15, 16, 17, 100, 999, 1000, 12345,
		time.Microsecond, 3 * time.Microsecond, time.Millisecond, 250 * time.Millisecond, time.Second,
	} {
		b := bucketOf(d)
		m := midOf(b)
		if m > d {
			t.Errorf("bucket lower bound %v above sample %v", m, d)
		}
		// Log-bucket quantization must stay within 1/16th of the value.
		if d > 16 && m < d-d/16-1 {
			t.Errorf("bucket for %v reports %v — more than 1/16 low", d, m)
		}
		if got := bucketOf(m); got != b {
			t.Errorf("midOf(%d) = %v maps back to bucket %d", b, m, got)
		}
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var l Latency
	for i := 1; i <= 1000; i++ {
		l.Record(time.Duration(i) * time.Microsecond)
	}
	p50 := l.Percentile(0.50)
	p99 := l.Percentile(0.99)
	if p50 < 450*time.Microsecond || p50 > 550*time.Microsecond {
		t.Errorf("p50 = %v, want ~500µs", p50)
	}
	if p99 < 900*time.Microsecond || p99 > 1000*time.Microsecond {
		t.Errorf("p99 = %v, want ~990µs", p99)
	}
	if l.Percentile(0) > l.Percentile(1) {
		t.Error("p0 above p100")
	}
}

func TestLatencyMerge(t *testing.T) {
	var a, b Latency
	for i := 0; i < 100; i++ {
		a.Record(time.Microsecond)
		b.Record(time.Millisecond)
	}
	a.Merge(&b)
	if a.count != 200 {
		t.Fatalf("count = %d", a.count)
	}
	if p := a.Percentile(0.25); p > 2*time.Microsecond {
		t.Errorf("p25 = %v, want the microsecond mass", p)
	}
	if p := a.Percentile(0.90); p < 900*time.Microsecond {
		t.Errorf("p90 = %v, want the millisecond mass", p)
	}
	a.Merge(nil) // must not panic
}
