package exec

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/memory"
)

// abortWorkload runs four threads on a machine whose lock word is held
// before Run starts. Thread 0 runs `failAfter` stores and then calls
// fail; thread 1 spins (Yield) on the held lock forever; threads 2 and
// 3 store in long loops, and thread 3 defers one more store, so both
// are parked mid-run when thread 0 fails. It returns Run's panic value
// and the op count thread 0 saw just before failing.
func abortWorkload(t *testing.T, cfg Config, failAfter int, fail func(th *Thread)) (recovered any, atFailure uint64, m *Machine) {
	t.Helper()
	cfg.Threads, cfg.Slice = 4, 4
	m = NewMachine(cfg)
	s := m.SetupThread()
	lock := s.MallocVolatile(8, 8)
	data := s.MallocPersistent(64, 64)
	s.Store8(lock, 1)
	func() {
		defer func() { recovered = recover() }()
		m.Run(func(th *Thread) {
			switch th.TID() {
			case 0:
				for i := 0; i < failAfter; i++ {
					th.Store8(data, uint64(i))
				}
				atFailure = m.Ops()
				fail(th)
			case 1:
				for th.Load8(lock) != 0 {
					th.Yield()
				}
				th.Store8(data+8, 1)
			default:
				if th.TID() == 3 {
					defer th.Store8(data+24, 1)
				}
				for i := 0; i < 1_000_000; i++ {
					th.Store8(data+memory.Addr(8*th.TID()), uint64(i))
				}
			}
		})
	}()
	return recovered, atFailure, m
}

// settleGoroutines waits briefly for the goroutine count to fall back
// to base, and reports the last count seen.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestRunRepanicsThreadPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	type boom struct{ tid int }
	// MaxOps only bounds a broken unwind: a spinner that kept running
	// inside Run's cleanup would overrun it and replace boom.
	got, at, m := abortWorkload(t, Config{Seed: 3, MaxOps: 1_000_000}, 200, func(th *Thread) {
		panic(boom{th.TID()})
	})
	if got != (boom{0}) {
		t.Fatalf("Run panicked with %#v, want the thread's own boom{0}", got)
	}
	if m.Ops() != at {
		t.Errorf("Ops = %d after the failure at %d: stopped threads kept running", m.Ops(), at)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("goroutines = %d after Run, baseline %d", n, base)
	}
}

func TestRunRepanicsMaxOps(t *testing.T) {
	base := runtime.NumGoroutine()
	const maxOps = 500
	got, _, m := abortWorkload(t, Config{Seed: 5, MaxOps: maxOps}, 1_000_000, func(*Thread) {
		t.Error("thread 0 outran MaxOps")
	})
	msg, ok := got.(string)
	if !ok || !strings.Contains(msg, "exceeded MaxOps=500") {
		t.Fatalf("Run panicked with %#v, want the MaxOps overrun", got)
	}
	if m.Ops() != maxOps+1 {
		t.Errorf("Ops = %d, want %d: the overrunning op is the last one", m.Ops(), maxOps+1)
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("goroutines = %d after Run, baseline %d", n, base)
	}
}
