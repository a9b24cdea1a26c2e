// Package sched provides the deterministic execution control used to build
// the paper's adversarial executions.
//
// The proofs of Theorem 6.1 (Figure 1) and of Appendix E (Figure 2) are
// driven by a scheduler: "at this stage, the scheduler moves control to
// T2", "T1 is halted after reading head's next pointer", "starting from
// C_in, the scheduler applies a solo-run by T1". This package realizes that
// scheduler as breakpoints: data-structure operations are instrumented with
// named yield points, a director arms a breakpoint for a specific thread at
// a specific point, and the thread parks there until released. Threads that
// run whole operations to completion need no machinery at all — the
// director simply invokes their operations inline.
package sched

import "sync"

// Gate is the instrumentation hook data-structure code calls at named
// execution points. The zero-value usage is a nil *Breakpoints, which every
// call site must guard (a nil gate means free running); the data-structure
// packages wrap that guard.
type Gate interface {
	// Hit reports that thread tid reached the named point with an
	// auxiliary argument (typically the key of the node in hand). Hit
	// may block the calling goroutine if a breakpoint is armed.
	Hit(tid int, point string, arg uint64)
}

// Stall is an armed breakpoint: the director waits on Reached, the parked
// thread waits for Release.
type Stall struct {
	reached     chan struct{}
	release     chan struct{}
	releaseOnce sync.Once
}

// Reached is closed when some thread parks at the breakpoint.
func (s *Stall) Reached() <-chan struct{} { return s.reached }

// Release unparks the thread. It is idempotent: only the first call
// releases, later calls are no-ops, so directors may release defensively
// on every exit path.
func (s *Stall) Release() {
	s.releaseOnce.Do(func() { close(s.release) })
}

type bp struct {
	point string
	match func(arg uint64) bool
	skip  int
	stall *Stall
}

// Breakpoints is a Gate that can park threads at armed points. It is the
// paper's adversarial scheduler.
type Breakpoints struct {
	mu    sync.Mutex
	armed map[int]*bp
}

// NewBreakpoints builds an empty breakpoint set.
func NewBreakpoints() *Breakpoints {
	return &Breakpoints{armed: make(map[int]*bp)}
}

// Arm arms a breakpoint for thread tid at the named point. The thread will
// park at its (skip+1)-th future visit to the point for which match(arg)
// holds; a nil match accepts every visit. Only one breakpoint per thread
// may be armed at a time; re-arming replaces the previous one.
func (b *Breakpoints) Arm(tid int, point string, match func(arg uint64) bool, skip int) *Stall {
	s := &Stall{reached: make(chan struct{}), release: make(chan struct{})}
	b.mu.Lock()
	b.armed[tid] = &bp{point: point, match: match, skip: skip, stall: s}
	b.mu.Unlock()
	return s
}

// ArmIfFree arms like Arm but refuses to replace: when tid already has a
// breakpoint armed it returns (nil, false) and leaves it in place.
// Concurrent directors sharing one Breakpoints (the chaos engine's
// stall-family faults) use it to claim distinct threads without
// clobbering each other.
func (b *Breakpoints) ArmIfFree(tid int, point string, match func(arg uint64) bool, skip int) (*Stall, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, taken := b.armed[tid]; taken {
		return nil, false
	}
	s := &Stall{reached: make(chan struct{}), release: make(chan struct{})}
	b.armed[tid] = &bp{point: point, match: match, skip: skip, stall: s}
	return s, true
}

// DisarmStall removes tid's breakpoint only if it is the one whose Arm
// returned s, so a director racing other directors never removes theirs
// (its own breakpoint may have fired and the slot been re-armed by
// someone else).
func (b *Breakpoints) DisarmStall(tid int, s *Stall) {
	b.mu.Lock()
	if p := b.armed[tid]; p != nil && p.stall == s {
		delete(b.armed, tid)
	}
	b.mu.Unlock()
}

// Hit implements Gate.
func (b *Breakpoints) Hit(tid int, point string, arg uint64) {
	b.mu.Lock()
	p := b.armed[tid]
	if p == nil || p.point != point || (p.match != nil && !p.match(arg)) {
		b.mu.Unlock()
		return
	}
	if p.skip > 0 {
		p.skip--
		b.mu.Unlock()
		return
	}
	delete(b.armed, tid)
	b.mu.Unlock()
	close(p.stall.reached)
	<-p.stall.release
}

// Task is a handle on an asynchronously running operation.
type Task struct {
	done chan struct{}
	err  error
}

// Go runs fn on its own goroutine and returns a handle. It is how the
// director launches the thread that will park at a breakpoint.
func Go(fn func() error) *Task {
	t := &Task{done: make(chan struct{})}
	go func() {
		defer close(t.done)
		t.err = fn()
	}()
	return t
}

// Wait blocks until the task finishes and returns its error.
func (t *Task) Wait() error {
	<-t.done
	return t.err
}
