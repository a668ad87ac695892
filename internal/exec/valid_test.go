package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/memory"
	"repro/internal/trace"
)

// countSink counts the events that reach it.
type countSink struct{ n int }

func (s *countSink) Emit(trace.Event) { s.n++ }

// panicOf runs f and returns its panic message, or "" if f returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestMisuseRejectedAtEntry pins that exec emits only valid events by
// construction: every misuse that would make an invalid event panics
// with an "exec:" message where it enters, before any event reaches
// the sink.
func TestMisuseRejectedAtEntry(t *testing.T) {
	volEnd := memory.VolatileBase + memory.Addr(memory.VolatileSize)
	perEnd := memory.PersistentBase + memory.Addr(memory.PersistentSize)
	cases := []struct {
		name string
		op   func(s *Thread)
		want string
	}{
		{name: "load size 0", op: func(s *Thread) { s.Load(memory.VolatileBase, 0) }, want: "size 0"},
		{name: "load size 9", op: func(s *Thread) { s.Load(memory.VolatileBase, 9) }, want: "size 9"},
		{name: "load size 16", op: func(s *Thread) { s.Load(memory.PersistentBase, 16) }, want: "size 16"},
		{name: "load size -1", op: func(s *Thread) { s.Load(memory.PersistentBase, -1) }, want: "size -1"},
		{name: "store size 0", op: func(s *Thread) { s.Store(memory.VolatileBase, 0, 1) }, want: "size 0"},
		{name: "store size 9", op: func(s *Thread) { s.Store(memory.PersistentBase, 9, 1) }, want: "size 9"},
		{name: "store size 16", op: func(s *Thread) { s.Store(memory.PersistentBase, 16, 1) }, want: "size 16"},
		{name: "store size 256", op: func(s *Thread) { s.Store(memory.PersistentBase, 256, 1) }, want: "size 256"},
		{name: "load unmapped", op: func(s *Thread) { s.Load8(0x10) }, want: "unmapped"},
		{name: "store unmapped", op: func(s *Thread) { s.Store8(perEnd, 1) }, want: "unmapped"},
		{name: "load leaves volatile", op: func(s *Thread) { s.Load(volEnd-4, 8) }, want: "crosses out"},
		{name: "store leaves persistent", op: func(s *Thread) { s.Store(perEnd-2, 4, 1) }, want: "crosses out"},
		{name: "cas unmapped", op: func(s *Thread) { s.CAS8(volEnd, 0, 1) }, want: "unmapped"},
		{name: "swap leaves volatile", op: func(s *Thread) { s.Swap8(volEnd-4, 1) }, want: "crosses out"},
		{name: "add unmapped", op: func(s *Thread) { s.Add8(0, 1) }, want: "unmapped"},
		{name: "free unmapped", op: func(s *Thread) { s.FreeHeap(0x10) }, want: "unmapped"},
		{name: "free never allocated", op: func(s *Thread) { s.FreeHeap(memory.PersistentBase + 64) }, want: "exec:"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sink := &countSink{}
			m := NewMachine(Config{Sink: sink})
			msg := panicOf(func() { c.op(m.SetupThread()) })
			if !strings.HasPrefix(msg, "exec: ") || !strings.Contains(msg, c.want) {
				t.Fatalf("panic %q, want an exec: message containing %q", msg, c.want)
			}
			if sink.n != 0 {
				t.Fatalf("%d events reached the sink before the panic", sink.n)
			}
		})
	}

	t.Run("too many threads", func(t *testing.T) {
		// NewMachine panics; no thread is ever started.
		msg := panicOf(func() { NewMachine(Config{Threads: trace.MaxThreads + 1}) })
		if !strings.HasPrefix(msg, "exec: ") || !strings.Contains(msg, "MaxThreads") {
			t.Fatalf("panic %q, want an exec: message naming MaxThreads", msg)
		}
		if msg := panicOf(func() { NewMachine(Config{Threads: trace.MaxThreads}) }); msg != "" {
			t.Fatalf("MaxThreads threads: %s", msg)
		}
	})
}

// TestPSOBadStoreFailsAtCall pins that a PSO store of a bad size
// panics at its call, not when the store buffer drains it: no Store
// event reaches the sink, and the workload never runs past the call.
func TestPSOBadStoreFailsAtCall(t *testing.T) {
	sink := &countSink{}
	m := NewMachine(Config{Threads: 1, Consistency: PSO, Sink: sink})
	a := m.SetupThread().MallocPersistent(64, 64)
	before := sink.n
	returned := false
	msg := panicOf(func() {
		m.Run(func(th *Thread) {
			th.Store(a, 12, 1)
			returned = true
		})
	})
	if !strings.HasPrefix(msg, "exec: ") || !strings.Contains(msg, "size 12") {
		t.Fatalf("panic %q, want an exec: message naming size 12", msg)
	}
	if returned {
		t.Fatal("the bad store returned; it was buffered instead of rejected")
	}
	if sink.n != before {
		t.Fatalf("%d events reached the sink after the bad store", sink.n-before)
	}
}
