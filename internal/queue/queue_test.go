package queue

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/trace"
)

// runInserts executes a queue workload: threads × perThread inserts of
// payloadLen bytes, payload ids tid*1000000+i. Returns the machine, the
// queue, and the trace.
func runInserts(t *testing.T, cfg Config, threads, perThread, payloadLen int, seed int64) (*exec.Machine, *Queue, *trace.Trace) {
	t.Helper()
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: threads, Seed: seed, Sink: tr})
	s := m.SetupThread()
	q, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(func(th *exec.Thread) {
		for i := 0; i < perThread; i++ {
			id := uint64(th.TID())*1000000 + uint64(i)
			th.BeginWork(id)
			q.Insert(th, MakePayload(id, payloadLen))
			th.EndWork(id)
		}
	})
	return m, q, tr
}

func recoveredIDs(t *testing.T, entries []Entry, payloadLen int) map[uint64]bool {
	t.Helper()
	ids := make(map[uint64]bool)
	for _, e := range entries {
		if len(e.Payload) != payloadLen {
			t.Fatalf("entry at %d has length %d", e.Offset, len(e.Payload))
		}
		// Identify the payload by brute-force match against the id space
		// used by runInserts (cheap for test sizes).
		found := false
		for tid := uint64(0); tid < 16 && !found; tid++ {
			for i := uint64(0); i < 512 && !found; i++ {
				id := tid*1000000 + i
				if bytes.Equal(e.Payload, MakePayload(id, payloadLen)) {
					ids[id] = true
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("entry at %d matches no known payload", e.Offset)
		}
	}
	return ids
}

func TestCWLSingleThreadInsertRecover(t *testing.T) {
	m, q, _ := runInserts(t, Config{DataBytes: 1 << 16, Design: CWL, Policy: core.PolicyEpoch}, 1, 20, 100, 1)
	entries, err := Recover(m.PersistentImage(), q.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 20 {
		t.Fatalf("recovered %d entries, want 20", len(entries))
	}
	ids := recoveredIDs(t, entries, 100)
	for i := uint64(0); i < 20; i++ {
		if !ids[i] {
			t.Fatalf("entry %d missing", i)
		}
	}
	// Single-thread CWL preserves insertion order.
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Offset >= entries[i].Offset {
			t.Fatal("entries out of order")
		}
	}
}

func TestQueueAllDesignsAllPolicies(t *testing.T) {
	for _, d := range []Design{CWL, TwoLock} {
		for _, p := range core.Policies {
			for _, threads := range []int{1, 4} {
				name := fmt.Sprintf("%v/%v/%dT", d, p, threads)
				t.Run(name, func(t *testing.T) {
					m, q, _ := runInserts(t, Config{DataBytes: 1 << 16, Design: d, Policy: p}, threads, 25, 100, 7)
					entries, err := Recover(m.PersistentImage(), q.Meta())
					if err != nil {
						t.Fatal(err)
					}
					want := threads * 25
					if len(entries) != want {
						t.Fatalf("recovered %d entries, want %d", len(entries), want)
					}
					ids := recoveredIDs(t, entries, 100)
					if len(ids) != want {
						t.Fatalf("distinct ids %d, want %d", len(ids), want)
					}
				})
			}
		}
	}
}

func TestRemoveFIFO(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 1 << 14, Design: CWL, Policy: core.PolicyEpoch})
	var want [][]byte
	for i := uint64(0); i < 10; i++ {
		p := MakePayload(i, 50)
		want = append(want, p)
		q.Insert(s, p)
	}
	for i := 0; i < 10; i++ {
		got, ok := q.Remove(s)
		if !ok {
			t.Fatalf("Remove %d: empty", i)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("Remove %d: wrong payload", i)
		}
	}
	if _, ok := q.Remove(s); ok {
		t.Fatal("Remove from empty queue should report not-ok")
	}
}

func TestWrapAround(t *testing.T) {
	// Buffer of 4 slots (payload 100 -> slot 128): insert/remove in a
	// pattern that forces wraps, including a non-dividing entry size.
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 512, Design: CWL, Policy: core.PolicyEpoch})
	seq := uint64(0)
	for round := 0; round < 10; round++ {
		sizes := []int{100, 40, 150} // 150 -> slot 192: forces misaligned wraps
		var want [][]byte
		for _, sz := range sizes {
			p := MakePayload(seq, sz)
			seq++
			want = append(want, p)
			q.Insert(s, p)
		}
		// Recovery must see exactly the live entries.
		entries, err := Recover(m.PersistentImage(), q.Meta())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(entries) != len(sizes) {
			t.Fatalf("round %d: recovered %d, want %d", round, len(entries), len(sizes))
		}
		for i := range want {
			got, ok := q.Remove(s)
			if !ok || !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d entry %d mismatch", round, i)
			}
		}
	}
}

func TestQueueFullPanics(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 256, Design: CWL, Policy: core.PolicyEpoch})
	defer func() {
		if recover() == nil {
			t.Error("overfilling the queue should panic")
		}
	}()
	for i := uint64(0); i < 10; i++ {
		q.Insert(s, MakePayload(i, 100))
	}
}

func TestConfigValidation(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	if _, err := New(s, Config{DataBytes: 100, Design: CWL}); err == nil {
		t.Error("unaligned DataBytes accepted")
	}
	if _, err := New(s, Config{DataBytes: 0, Design: CWL}); err == nil {
		t.Error("zero DataBytes accepted")
	}
	if _, err := New(s, Config{DataBytes: 1 << 12, Design: Design(9)}); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestAnnotationCounts(t *testing.T) {
	// Verify the Algorithm 1 barrier placement per policy for CWL.
	const inserts = 10
	counts := func(p core.Policy) (barriers, strands int) {
		_, _, tr := runInserts(t, Config{DataBytes: 1 << 16, Design: CWL, Policy: p}, 1, inserts, 100, 3)
		s := trace.Summarize(tr)
		return s.Barriers, s.Strands
	}
	// Setup emits one barrier after initializing head/tail.
	if b, s := counts(core.PolicyStrict); b != 1 || s != 0 {
		t.Errorf("strict: %d barriers %d strands", b, s)
	}
	if b, s := counts(core.PolicyEpoch); b != 1+5*inserts || s != 0 {
		t.Errorf("epoch: %d barriers, want %d", b, 1+5*inserts)
		_ = s
	}
	if b, _ := counts(core.PolicyRacingEpoch); b != 1+3*inserts {
		t.Errorf("racing: %d barriers, want %d", b, 1+3*inserts)
	}
	// Strand adds the §5.3 ordering-read barrier after each NewStrand.
	if b, s := counts(core.PolicyStrand); b != 1+6*inserts || s != inserts {
		t.Errorf("strand: %d barriers %d strands", b, s)
	}
}

func TestTwoLockInsertList(t *testing.T) {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	l := newInsertList(s, 4)
	n0 := l.append(s, 100)
	n1 := l.append(s, 200)
	n2 := l.append(s, 300)
	// Completing out of order: n1 first -> not oldest, no head motion.
	if oldest, _ := l.remove(s, n1); oldest {
		t.Fatal("n1 should not be oldest")
	}
	// n0 completes: pops n0 and the already-done n1 -> head 200.
	oldest, newHead := l.remove(s, n0)
	if !oldest || newHead != 200 {
		t.Fatalf("n0 removal: oldest=%v head=%d", oldest, newHead)
	}
	// n2 completes: pops itself -> head 300.
	oldest, newHead = l.remove(s, n2)
	if !oldest || newHead != 300 {
		t.Fatalf("n2 removal: oldest=%v head=%d", oldest, newHead)
	}
}

func TestTwoLockListBackpressure(t *testing.T) {
	// A tiny insert list (MaxThreads 1 -> capacity 2) with more threads
	// than capacity: appenders must wait for the front to advance, and
	// the run must still complete with every entry recoverable.
	m, q, _ := runInserts(t, Config{DataBytes: 1 << 15, Design: TwoLock, Policy: core.PolicyEpoch, MaxThreads: 1}, 4, 15, 64, 9)
	entries, err := Recover(m.PersistentImage(), q.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 60 {
		t.Fatalf("recovered %d entries, want 60", len(entries))
	}
}

func TestOverwriteLogMode(t *testing.T) {
	// An overwriting log accepts many times its capacity of inserts
	// without panicking; the head offset keeps growing monotonically.
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := MustNew(s, Config{DataBytes: 512, Design: CWL, Policy: core.PolicyEpoch, Overwrite: true})
	for i := uint64(0); i < 100; i++ {
		q.Insert(s, MakePayload(i, 100))
	}
	head := s.Load8(q.Meta().Head)
	if head < 100*SlotBytes(100) {
		t.Fatalf("head = %d, expected monotonic growth", head)
	}
}

func TestDesignPolicyStrings(t *testing.T) {
	if CWL.String() == "" || TwoLock.String() == "" || Design(7).String() == "" {
		t.Error("design strings")
	}
	for _, p := range core.Policies {
		if p.String() == "" {
			t.Error("policy string empty")
		}
	}
}
