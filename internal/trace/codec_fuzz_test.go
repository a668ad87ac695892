package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/trace"
)

func encode(tb testing.TB, events ...trace.Event) []byte {
	tb.Helper()
	tr := &trace.Trace{}
	for _, e := range events {
		tr.Emit(e)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadAll feeds arbitrary bytes to the binary trace decoder, the
// one input a user hands the tools as a file. Decoding must never
// panic; every stream it accepts must survive WriteAll → ReadAll with
// only Seq renumbered (and, where the stored Seq was already
// positional, re-encode to the input bytes); and every accepted trace
// must simulate and build a graph under each model to a result or an
// error, never a panic, with the simulator and the graph builder
// accepting or rejecting it together. SimulateAll, which validates
// only in its first pass, must return Simulate's error.
func FuzzReadAll(f *testing.F) {
	p, v := memory.PersistentBase, memory.VolatileBase
	f.Add([]byte{})
	f.Add([]byte(trace.Magic))
	f.Add(encode(f,
		trace.Event{Kind: trace.Malloc, Addr: p, Val: 64},
		trace.Event{TID: 1, Kind: trace.BeginWork, Val: 7},
		trace.Event{TID: 1, Kind: trace.Store, Addr: p + 8, Size: 8, Val: 1},
		trace.Event{TID: 1, Kind: trace.PersistBarrier},
		trace.Event{TID: 0, Kind: trace.Load, Addr: v + 3, Size: 4},
		trace.Event{TID: 0, Kind: trace.RMW, Addr: p, Size: 8, Val: 2},
		trace.Event{TID: 0, Kind: trace.NewStrand},
		trace.Event{TID: 0, Kind: trace.PersistSync},
		trace.Event{TID: 1, Kind: trace.EndWork, Val: 7},
		trace.Event{Kind: trace.Free, Addr: p},
	))
	// A kind byte past EndWork, which both consumers must refuse.
	f.Add(encode(f,
		trace.Event{Kind: trace.Store, Addr: p, Size: 8, Val: 1},
		trace.Event{Kind: trace.Kind(42)},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, tr); err != nil {
			t.Fatal(err)
		}
		again, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("accepted a %d-byte stream but rejected its re-encoding: %v", len(data), err)
		}
		if again.Len() != tr.Len() {
			t.Fatalf("round trip changed the length: %d → %d events", tr.Len(), again.Len())
		}
		positional := true
		for i := 0; i < tr.Len(); i++ {
			e := tr.At(i)
			positional = positional && e.Seq == uint64(i)
			e.Seq = uint64(i)
			if got := again.At(i); got != e {
				t.Fatalf("round trip changed event %d: %v → %v", i, e, got)
			}
		}
		if positional && len(data) > 0 && !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("a positionally numbered stream did not re-encode to its own bytes")
		}
		var first error
		for i, m := range core.Models {
			p := core.Params{Model: m}
			_, serr := core.Simulate(tr, p)
			_, gerr := graph.Build(tr, p)
			if (serr == nil) != (gerr == nil) {
				t.Fatalf("%v: Simulate error %v but Build error %v", m, serr, gerr)
			}
			if i == 0 {
				first = serr
			}
		}
		if _, aerr := core.SimulateAll(tr, core.Params{}); (aerr == nil) != (first == nil) || aerr != nil && aerr.Error() != first.Error() {
			t.Fatalf("SimulateAll error %v but Simulate error %v", aerr, first)
		}
	})
}
