package bench

import (
	"fmt"
	"io"

	"repro/internal/ds"
	"repro/internal/ds/harris"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/smr"
	"repro/internal/smr/all"
)

// ScaleRow is one point of the robustness-vs-structure-size experiment
// (EXP-SCALE). Definition 5.1 requires the backlog bound to be
// o(max_active): a robust scheme's stalled-reader backlog must NOT track
// the structure size, a weakly robust scheme's may be linear in it.
type ScaleRow struct {
	Scheme string
	// Size is the number of keys prefilled before the reader stalls.
	Size int
	// Backlog is the retired backlog after the whole prefix is deleted
	// under the stalled reader and scans have run.
	Backlog uint64
	// PerSize is Backlog/Size — flat near 0 for robust schemes, near 1
	// for weakly robust interval/era schemes (the stalled reservation
	// pins everything alive at the stall point).
	PerSize float64
}

// ScaleBound measures the stalled-reader backlog for one scheme at one
// prefill size: fill Harris's list with size keys, stall a reader at the
// start of a traversal, delete every key, churn to force scans, and read
// the backlog.
func ScaleBound(scheme string, size int) (ScaleRow, error) {
	const churn = 256
	a := mem.NewArena(mem.Config{
		Slots: 2*size + 2*churn + 256, PayloadWords: 2, MetaWords: smr.MetaWords,
		Threads: 2, Mode: mem.Reuse,
	})
	s, err := all.New(scheme, a, 2, 16)
	if err != nil {
		return ScaleRow{}, err
	}
	bp := sched.NewBreakpoints()
	l, err := harris.New(s, ds.Options{Gate: bp})
	if err != nil {
		return ScaleRow{}, err
	}
	for k := int64(0); k < int64(size); k++ {
		if ok, err := l.Insert(1, k); err != nil || !ok {
			return ScaleRow{}, fmt.Errorf("bench: scale prefill insert(%d) = %v, %v", k, ok, err)
		}
	}
	stall := bp.Arm(0, ds.PointSearchHead, nil, 0)
	t1 := sched.Go(func() error {
		_, err := l.Contains(0, int64(size)+10)
		return err
	})
	<-stall.Reached()
	defer func() {
		stall.Release()
		_ = t1.Wait()
	}()

	// Delete the whole prefix under the stall, then churn fresh keys to
	// keep scans firing, then flush.
	for k := int64(0); k < int64(size); k++ {
		if ok, err := l.Delete(1, k); err != nil || !ok {
			return ScaleRow{}, fmt.Errorf("bench: scale delete(%d) = %v, %v", k, ok, err)
		}
	}
	for i := int64(0); i < churn; i++ {
		key := int64(size) + 100 + i
		if ok, err := l.Insert(1, key); err != nil || !ok {
			return ScaleRow{}, fmt.Errorf("bench: scale churn insert = %v, %v", ok, err)
		}
		if ok, err := l.Delete(1, key); err != nil || !ok {
			return ScaleRow{}, fmt.Errorf("bench: scale churn delete = %v, %v", ok, err)
		}
	}
	s.Flush(1)
	backlog := a.Stats().Retired()
	return ScaleRow{
		Scheme:  scheme,
		Size:    size,
		Backlog: backlog,
		PerSize: float64(backlog) / float64(size),
	}, nil
}

// ScaleRows is EXP-SCALE's result.
type ScaleRows []ScaleRow

// Gates: EXP-SCALE asserts nothing at run time (its shape is unit-tested).
func (ScaleRows) Gates() []Gate { return nil }

// WriteTable renders the scale experiment.
func (rows ScaleRows) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-11s %8s %10s %9s\n", "scheme", "size", "backlog", "per-size")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %8d %10d %9.3f\n", r.Scheme, r.Size, r.Backlog, r.PerSize)
	}
}

func runScale(Profile) (Result, error) {
	return ScaleSweep([]string{"hp", "he", "ibr", "vbr", "nbr", "rc"}, []int{128, 512, 2048})
}

// ScaleSweep measures schemes × sizes.
func ScaleSweep(schemes []string, sizes []int) (ScaleRows, error) {
	var rows ScaleRows
	for _, scheme := range schemes {
		for _, size := range sizes {
			r, err := ScaleBound(scheme, size)
			if err != nil {
				return nil, fmt.Errorf("%s size %d: %w", scheme, size, err)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}
