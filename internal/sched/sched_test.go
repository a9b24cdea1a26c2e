package sched

import (
	"sync"
	"testing"
	"time"
)

func TestBreakpointParksAndReleases(t *testing.T) {
	b := NewBreakpoints()
	stall := b.Arm(1, "p", nil, 0)
	var order []string
	task := Go(func() error {
		order = append(order, "before")
		b.Hit(1, "p", 0)
		order = append(order, "after")
		return nil
	})
	<-stall.Reached()
	if len(order) != 1 || order[0] != "before" {
		t.Fatalf("order at stall: %v", order)
	}
	select {
	case <-task.done:
		t.Fatal("task must be parked")
	default:
	}
	stall.Release()
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[1] != "after" {
		t.Fatalf("order: %v", order)
	}
}

func TestBreakpointMatchAndSkip(t *testing.T) {
	b := NewBreakpoints()
	// Park at the second visit with arg==7.
	stall := b.Arm(0, "p", func(a uint64) bool { return a == 7 }, 1)
	visits := 0
	task := Go(func() error {
		for _, a := range []uint64{1, 7, 2, 7, 7} {
			b.Hit(0, "p", a)
			visits++
		}
		return nil
	})
	<-stall.Reached()
	if visits != 3 { // stalled inside the 4th Hit (second arg==7)
		t.Fatalf("visits at stall: %d", visits)
	}
	stall.Release()
	_ = task.Wait()
	if visits != 5 {
		t.Fatalf("visits: %d", visits)
	}
}

func TestBreakpointOtherThreadUnaffected(t *testing.T) {
	b := NewBreakpoints()
	_ = b.Arm(0, "p", nil, 0)
	done := make(chan struct{})
	go func() {
		b.Hit(1, "p", 0) // different tid: must not block
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("thread 1 blocked on thread 0's breakpoint")
	}
}

func TestDisarm(t *testing.T) {
	b := NewBreakpoints()
	stall := b.Arm(0, "p", nil, 0)
	b.DisarmStall(0, stall)
	done := make(chan struct{})
	go func() {
		b.Hit(0, "p", 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("disarmed breakpoint still parks")
	}
}

func TestHitWithNoArm(t *testing.T) {
	b := NewBreakpoints()
	b.Hit(3, "anything", 42) // must be a no-op
}

// TestReleaseIdempotent: directors commonly release once on the happy path
// and again in a deferred cleanup; the second call must be a no-op, not a
// double-close panic.
func TestReleaseIdempotent(t *testing.T) {
	b := NewBreakpoints()
	stall := b.Arm(0, "p", nil, 0)
	task := Go(func() error {
		b.Hit(0, "p", 0)
		return nil
	})
	<-stall.Reached()
	stall.Release()
	stall.Release() // must not panic
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	// Releasing concurrently from several goroutines is equally safe.
	stall2 := b.Arm(0, "p", nil, 0)
	task2 := Go(func() error {
		b.Hit(0, "p", 0)
		return nil
	})
	<-stall2.Reached()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			stall2.Release()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if err := task2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRearmReplaces: arming a second breakpoint for the same thread
// replaces the first — only the newest parks, and the orphaned stall
// never fires.
func TestRearmReplaces(t *testing.T) {
	b := NewBreakpoints()
	old := b.Arm(0, "p", nil, 0)
	cur := b.Arm(0, "q", nil, 0)
	task := Go(func() error {
		b.Hit(0, "p", 0) // replaced: must not park
		b.Hit(0, "q", 0) // current: parks
		return nil
	})
	<-cur.Reached()
	select {
	case <-old.Reached():
		t.Fatal("replaced breakpoint fired")
	default:
	}
	cur.Release()
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReachedWaiters: many directors may wait on the same
// stall's Reached (the chaos engine's fault and its watchdog both do);
// all of them must wake.
func TestConcurrentReachedWaiters(t *testing.T) {
	b := NewBreakpoints()
	stall := b.Arm(0, "p", nil, 0)
	var woke sync.WaitGroup
	for i := 0; i < 8; i++ {
		woke.Add(1)
		go func() {
			defer woke.Done()
			<-stall.Reached()
		}()
	}
	task := Go(func() error {
		b.Hit(0, "p", 0)
		return nil
	})
	woke.Wait()
	stall.Release()
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseBeforeReached: the chaos heal path releases defensively even
// when the park never happened — the thread arriving *after* the release
// must sail through without blocking once the breakpoint is disarmed,
// and a pre-release park must not deadlock.
func TestReleaseBeforeReached(t *testing.T) {
	b := NewBreakpoints()
	stall := b.Arm(0, "p", nil, 0)
	// Heal-without-park: disarm then release, as chaos does.
	b.DisarmStall(0, stall)
	stall.Release()
	done := make(chan struct{})
	go func() {
		b.Hit(0, "p", 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("thread blocked after disarm+release")
	}

	// Park racing the release: the hit that claims the breakpoint before
	// the release must unblock on the closed channel, not hang.
	stall2 := b.Arm(0, "p", nil, 0)
	task := Go(func() error {
		b.Hit(0, "p", 0)
		return nil
	})
	stall2.Release() // possibly before, possibly after the park
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHitsAndDisarms hammers Arm/Hit/DisarmStall from many
// goroutines: no panics, no lost releases, every parked thread drains.
// This is the exact contention shape of a chaos run — gate hits on every
// shard operation while the engine arms and heals.
func TestConcurrentHitsAndDisarms(t *testing.T) {
	b := NewBreakpoints()
	const threads = 4
	stop := make(chan struct{})
	var hitters sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		hitters.Add(1)
		go func(tid int) {
			defer hitters.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b.Hit(tid, "p", uint64(tid))
				}
			}
		}(tid)
	}
	for round := 0; round < 50; round++ {
		tid := round % threads
		stall := b.Arm(tid, "p", nil, round%3)
		select {
		case <-stall.Reached():
		case <-time.After(2 * time.Second):
			t.Fatal("armed breakpoint never reached under churn")
		}
		stall.Release()
		b.DisarmStall(tid, stall) // already fired: must be a harmless no-op
	}
	close(stop)
	hitters.Wait()
}

// TestArmIfFreeAndDisarmStall: claiming arms refuse to replace, and the
// targeted disarm removes only its own breakpoint.
func TestArmIfFreeAndDisarmStall(t *testing.T) {
	b := NewBreakpoints()
	first, ok := b.ArmIfFree(0, "p", nil, 0)
	if !ok || first == nil {
		t.Fatal("first claim refused")
	}
	if _, ok := b.ArmIfFree(0, "q", nil, 0); ok {
		t.Fatal("second claim replaced an armed breakpoint")
	}
	// DisarmStall with a stranger's stall must not remove first's.
	stranger, _ := b.ArmIfFree(1, "p", nil, 0)
	b.DisarmStall(0, stranger)
	task := Go(func() error {
		b.Hit(0, "p", 0)
		return nil
	})
	select {
	case <-first.Reached():
	case <-time.After(2 * time.Second):
		t.Fatal("first's breakpoint was removed by a mismatched DisarmStall")
	}
	first.Release()
	if err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	// After first fired, its slot is free again; a new owner claims it
	// and first's (now stale) DisarmStall must not remove the new one.
	second, ok := b.ArmIfFree(0, "p", nil, 0)
	if !ok {
		t.Fatal("slot not free after fire")
	}
	b.DisarmStall(0, first) // stale: no-op
	task2 := Go(func() error {
		b.Hit(0, "p", 0)
		return nil
	})
	select {
	case <-second.Reached():
	case <-time.After(2 * time.Second):
		t.Fatal("stale DisarmStall removed the new owner's breakpoint")
	}
	second.Release()
	if err := task2.Wait(); err != nil {
		t.Fatal(err)
	}
	b.DisarmStall(1, stranger)
}
