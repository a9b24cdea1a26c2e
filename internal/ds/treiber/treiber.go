// Package treiber implements the Treiber lock-free stack.
//
// The stack is the smallest structure in the applicability experiments:
// one entry point (Top, kept in a never-retired anchor node), retirement
// by the successful popper, no traversal of retired nodes. It is the
// classic setting where immediate free is unsafe (the popped node may be
// read by a concurrent pop that already loaded Top) and where every real
// scheme, including HP, is applicable.
package treiber

import (
	"repro/internal/ds"
	"repro/internal/mem"
	"repro/internal/smr"
)

const (
	wTop  = 0 // anchor word
	wVal  = 0
	wNext = 1
)

// Stack is the Treiber stack.
type Stack struct {
	ds.Instr
	s      smr.Scheme
	anchor mem.Ref
}

var _ ds.Stack = (*Stack)(nil)

// New builds an empty stack over scheme s.
func New(s smr.Scheme, opt ds.Options) (*Stack, error) {
	st := &Stack{Instr: ds.Instr{Opt: opt, A: s.Heap()}, s: s}
	ds.RegisterLinks(s, []int{wNext})
	anchor, err := ds.NewSentinel(s, 0, 0)
	if err != nil {
		return nil, err
	}
	st.anchor = anchor
	return st, nil
}

// Name implements ds.Stack.
func (st *Stack) Name() string { return "treiber" }

const maxAttempts = 1 << 22

// Push implements ds.Stack.
func (st *Stack) Push(tid int, v int64) error {
	st.s.BeginOp(tid)
	defer st.s.EndOp(tid)
	n, err := st.s.Alloc(tid)
	if err != nil {
		return err
	}
	st.s.Write(tid, n, wVal, uint64(v))
	if err := st.A.MarkShared(n); err != nil {
		return err
	}
	for i := 0; i < maxAttempts; i++ {
		st.Phase(tid, ds.PhaseRead)
		top, ok := st.s.ReadPtr(tid, 0, st.anchor, wTop)
		if !ok {
			continue
		}
		if !st.s.WritePtr(tid, n, wNext, top) {
			continue
		}
		if !st.s.Reserve(tid) {
			continue
		}
		st.Phase(tid, ds.PhaseWrite)
		swapped, ok := st.s.CASPtr(tid, st.anchor, wTop, top, n)
		if !ok || !swapped {
			continue
		}
		return nil
	}
	return ds.ErrCorrupted
}

// Pop implements ds.Stack; the popper retires the popped node.
func (st *Stack) Pop(tid int) (int64, bool, error) {
	st.s.BeginOp(tid)
	defer st.s.EndOp(tid)
	for i := 0; i < maxAttempts; i++ {
		st.Phase(tid, ds.PhaseRead)
		top, ok := st.s.ReadPtr(tid, 0, st.anchor, wTop)
		if !ok {
			continue
		}
		if top.IsNil() {
			return 0, false, nil
		}
		next, ok := st.s.ReadPtr(tid, 1, top, wNext)
		if !ok {
			continue
		}
		v, ok := st.s.Read(tid, top, wVal)
		if !ok {
			continue
		}
		if !st.s.Reserve(tid, top) {
			continue
		}
		st.Phase(tid, ds.PhaseWrite)
		swapped, ok := st.s.CASPtr(tid, st.anchor, wTop, top, next)
		if !ok || !swapped {
			continue
		}
		st.s.Retire(tid, top)
		return int64(v), true, nil
	}
	return 0, false, ds.ErrCorrupted
}
