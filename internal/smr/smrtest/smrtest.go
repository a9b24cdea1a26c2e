// Package smrtest provides shared helpers for the per-scheme test
// packages: arena construction and synthetic allocate/retire churn that
// exercises reclamation without a data structure on top.
package smrtest

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/mem"
	"repro/internal/smr"
)

// NewArena builds a test arena with the standard scheme metadata layout.
func NewArena(n, slots int, mode mem.ReclaimMode) *mem.Arena {
	return mem.NewArena(mem.Config{
		Slots:        slots,
		PayloadWords: 2,
		MetaWords:    smr.MetaWords,
		Threads:      n,
		Mode:         mode,
	})
}

// Churn runs ops allocate-write-retire cycles on behalf of thread tid,
// each inside its own operation bracket.
func Churn(s smr.Scheme, tid, ops int) error {
	for i := 0; i < ops; i++ {
		s.BeginOp(tid)
		r, err := s.Alloc(tid)
		if err != nil {
			s.EndOp(tid)
			return fmt.Errorf("churn op %d: %w", i, err)
		}
		if !s.Write(tid, r, 0, uint64(i)) {
			s.EndOp(tid)
			return fmt.Errorf("churn op %d: write rolled back on a local node", i)
		}
		if err := s.Heap().MarkShared(r); err != nil {
			s.EndOp(tid)
			return err
		}
		s.Retire(tid, r)
		s.EndOp(tid)
	}
	return nil
}

// AllocShared allocates a node, writes val into word 0, and publishes it.
func AllocShared(s smr.Scheme, tid int, val uint64) (mem.Ref, error) {
	s.BeginOp(tid)
	defer s.EndOp(tid)
	r, err := s.Alloc(tid)
	if err != nil {
		return mem.NilRef, err
	}
	if !s.Write(tid, r, 0, val) {
		return mem.NilRef, fmt.Errorf("write rolled back on a local node")
	}
	if err := s.Heap().MarkShared(r); err != nil {
		return mem.NilRef, err
	}
	return r, nil
}

// DrainAll flushes every thread's retire list rounds times.
func DrainAll(s smr.Scheme, n, rounds int) {
	for i := 0; i < rounds; i++ {
		for tid := 0; tid < n; tid++ {
			s.Flush(tid)
		}
	}
}

// ScanLog is an smr.Observer that keeps the worst scan it saw.
type ScanLog struct {
	Scans int
	// MaxScanned is the most nodes one scan examined; MaxKept is the most
	// nodes one scan examined without reclaiming them.
	MaxScanned, MaxKept int
}

// SMRScan implements smr.Observer.
func (l *ScanLog) SMRScan(tid, scanned, reclaimed int) {
	l.Scans++
	l.MaxScanned = max(l.MaxScanned, scanned)
	l.MaxKept = max(l.MaxKept, scanned-reclaimed)
}

// CheckEpochScans drives a seeded random schedule of brackets, retires and
// flushes on threads 0 and 1 of an epoch scheme s, whose shared state is
// b and whose global epoch epoch reports. After every scan the retire
// list must be exactly what the full-list rule leaves — every node whose
// retire stamp is less than two epochs old, in the order they were
// retired — and the arena must have reclaimed every other node. After
// every step the list must be in stamp order.
func CheckEpochScans(s smr.Scheme, b *smr.Base, epoch func() uint64, seed uint64, steps int) error {
	rng := rand.New(rand.NewPCG(seed, 0))
	a := s.Heap()
	stamp := func(r mem.Ref) uint64 { return a.MetaLoad(r.Slot(), smr.MetaRetire) }
	var inOp [2]bool
	var before []mem.Ref
	for step := 0; step < steps; step++ {
		tid := rng.IntN(2)
		before = append(before[:0], b.Lists[tid].Refs...)
		stamps := make(map[mem.Ref]uint64, len(before)+1)
		for _, r := range before {
			stamps[r] = stamp(r)
		}
		scans, reclaims := s.Stats().Scans.Load(), a.Stats().Snapshot().Reclaims
		switch k := rng.IntN(10); {
		case k < 2:
			if inOp[tid] {
				s.EndOp(tid)
			} else {
				s.BeginOp(tid)
			}
			inOp[tid] = !inOp[tid]
			continue
		case k < 3:
			s.Flush(tid)
		default:
			r, err := s.Alloc(tid)
			if err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			if err := a.MarkShared(r); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			s.Retire(tid, r)
			stamps[r] = stamp(r) // stamped by Retire
			before = append(before, r)
		}
		after := b.Lists[tid].Refs
		if !slices.IsSortedFunc(after, func(x, y mem.Ref) int { return cmp.Compare(stamps[x], stamps[y]) }) {
			return fmt.Errorf("step %d: T%d retire list out of stamp order", step, tid)
		}
		want := before
		if s.Stats().Scans.Load() != scans {
			cur := epoch()
			want = slices.DeleteFunc(before, func(r mem.Ref) bool { return stamps[r]+2 <= cur })
		}
		if !slices.Equal(after, want) {
			return fmt.Errorf("step %d: T%d retire list %v after the scan, full-list rule keeps %v", step, tid, after, want)
		}
		if got, wantN := a.Stats().Snapshot().Reclaims-reclaims, uint64(len(stamps)-len(want)); got != wantN {
			return fmt.Errorf("step %d: T%d scan reclaimed %d nodes, full-list rule reclaims %d", step, tid, got, wantN)
		}
	}
	return nil
}
