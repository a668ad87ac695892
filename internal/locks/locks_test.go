package locks

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/trace"
)

// exerciseMutualExclusion runs a critical-section workload that would
// corrupt shared state under any mutual-exclusion violation: inside the
// section each thread writes its id into a guard word, does unrelated
// work, and verifies the guard is untouched before incrementing a
// counter non-atomically (load, work, store).
func exerciseMutualExclusion(t *testing.T, mk func(*exec.Thread) *MCS, threads, iters int, seed int64) {
	t.Helper()
	m := exec.NewMachine(exec.Config{Threads: threads, Seed: seed, Slice: 3})
	s := m.SetupThread()
	l := mk(s)
	guard := s.MallocVolatile(8, 8)
	ctr := s.MallocVolatile(8, 8)
	violations := s.MallocVolatile(8, 8)
	m.Run(func(th *exec.Thread) {
		me := uint64(th.TID() + 1)
		for i := 0; i < iters; i++ {
			l.Acquire(th)
			th.Store8(guard, me)
			v := th.Load8(ctr) // non-atomic read-modify-write
			if th.Load8(guard) != me {
				th.Add8(violations, 1)
			}
			th.Store8(ctr, v+1)
			l.Release(th)
		}
	})
	s = m.SetupThread()
	if got := s.Load8(violations); got != 0 {
		t.Fatalf("%d mutual-exclusion violations", got)
	}
	if got := s.Load8(ctr); got != uint64(threads*iters) {
		t.Fatalf("counter = %d, want %d (lost updates)", got, threads*iters)
	}
}

func TestMCSMutualExclusion(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		exerciseMutualExclusion(t, func(s *exec.Thread) *MCS { return NewMCS(s) }, 4, 100, seed)
	}
}

// exerciseMutualExclusionPSO repeats the torture test on a
// relaxed-consistency machine: the locks' internal fences must keep
// critical sections exclusive when store visibility reorders.
func exerciseMutualExclusionPSO(t *testing.T, mk func(*exec.Thread) *MCS, seed int64) {
	t.Helper()
	m := exec.NewMachine(exec.Config{Threads: 4, Seed: seed, Slice: 3, Consistency: exec.PSO})
	s := m.SetupThread()
	l := mk(s)
	ctr := s.MallocVolatile(8, 8)
	m.Run(func(th *exec.Thread) {
		for i := 0; i < 60; i++ {
			l.Acquire(th)
			v := th.Load8(ctr)
			th.Store8(ctr, v+1)
			l.Release(th)
		}
	})
	if got := m.SetupThread().Load8(ctr); got != 4*60 {
		t.Fatalf("lost updates under PSO: %d", got)
	}
}

func TestLocksUnderPSO(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		exerciseMutualExclusionPSO(t, func(s *exec.Thread) *MCS { return NewMCS(s) }, seed)
	}
}

func TestMCSUncontended(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	l := NewMCS(s)
	// Repeated acquire/release on one thread must not deadlock and must
	// reuse the same node allocation.
	before := m.VolHeap.LiveCount()
	l.Acquire(s)
	l.Release(s)
	after := m.VolHeap.LiveCount()
	l.Acquire(s)
	l.Release(s)
	if m.VolHeap.LiveCount() != after {
		t.Fatal("MCS should allocate one node per thread, not per acquire")
	}
	if after != before+1 {
		t.Fatalf("expected exactly one node allocation, got %d", after-before)
	}
}

func TestMCSHandoffOrder(t *testing.T) {
	// Under heavy contention MCS is FIFO per arrival; we verify at least
	// that every thread completes its sections (no starvation/deadlock).
	m := exec.NewMachine(exec.Config{Threads: 6, Seed: 11, Slice: 2})
	s := m.SetupThread()
	l := NewMCS(s)
	done := s.MallocVolatile(8*6, 8)
	m.Run(func(th *exec.Thread) {
		for i := 0; i < 50; i++ {
			l.Acquire(th)
			th.Add8(done+memory.Addr(8*th.TID()), 1)
			l.Release(th)
		}
	})
	s = m.SetupThread()
	for i := 0; i < 6; i++ {
		if got := s.Load8(done + memory.Addr(8*i)); got != 50 {
			t.Fatalf("thread %d completed %d/50 sections", i, got)
		}
	}
}

func TestLockTrafficIsTraced(t *testing.T) {
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 2, Seed: 3, Sink: tr})
	s := m.SetupThread()
	l := NewMCS(s)
	m.Run(func(th *exec.Thread) {
		for i := 0; i < 5; i++ {
			l.Acquire(th)
			l.Release(th)
		}
	})
	sum := trace.Summarize(tr)
	if sum.ByKind[trace.RMW] == 0 {
		t.Fatal("lock swaps/CASes missing from trace")
	}
	if sum.Persists != 0 {
		t.Fatal("volatile locks must not generate persists")
	}
}

func TestLocksAreVolatile(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	NewMCS(s)
	if m.PerHeap.LiveCount() != 0 {
		t.Fatal("locks allocated persistent memory")
	}
}
