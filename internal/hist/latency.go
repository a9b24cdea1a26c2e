package hist

import (
	"math/bits"
	"time"
)

// latencySubBits sets the resolution of the latency histogram: each
// power-of-two magnitude is split into 2^latencySubBits sub-buckets, giving
// a worst-case quantization error of 1/16th of the reported value.
const latencySubBits = 4

const latencyBuckets = 64 * (1 << latencySubBits)

// Latency is a log-scaled histogram of operation latencies. It is built
// for a measuring client's hot loop: Record is a shift, a mask and an
// increment on a plain (unsynchronized) counter array, so each measuring
// client owns a Latency and the run merges them once it is over.
// The zero value is ready to use.
type Latency struct {
	count   uint64
	buckets [latencyBuckets]uint64
}

// bucketOf maps a duration to its bucket: high bits select the magnitude
// (bit length of the nanosecond count), low bits the linear sub-bucket
// within that magnitude.
func bucketOf(d time.Duration) int {
	ns := uint64(d.Nanoseconds())
	if ns < 1<<latencySubBits {
		return int(ns)
	}
	msb := bits.Len64(ns) - 1
	sub := (ns >> (uint(msb) - latencySubBits)) & (1<<latencySubBits - 1)
	return (msb-latencySubBits+1)<<latencySubBits + int(sub)
}

// midOf returns the representative duration of bucket b (its lower bound).
func midOf(b int) time.Duration {
	if b < 1<<latencySubBits {
		return time.Duration(b)
	}
	exp := uint(b>>latencySubBits) + latencySubBits - 1
	sub := uint64(b & (1<<latencySubBits - 1))
	return time.Duration(1<<exp | sub<<(exp-latencySubBits))
}

// Record adds one latency observation.
func (l *Latency) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.buckets[bucketOf(d)]++
	l.count++
}

// Merge folds other into l.
func (l *Latency) Merge(other *Latency) {
	if other == nil {
		return
	}
	l.count += other.count
	for i, c := range other.buckets {
		l.buckets[i] += c
	}
}

// Percentile returns the latency at quantile p in [0, 1] (0.5 is the
// median). An empty histogram reports zero.
func (l *Latency) Percentile(p float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(l.count-1))
	var seen uint64
	for b, c := range l.buckets {
		seen += c
		if c > 0 && seen > rank {
			return midOf(b)
		}
	}
	return midOf(latencyBuckets - 1)
}
