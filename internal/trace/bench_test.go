package trace

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/memory"
)

func BenchmarkCodecEncode(b *testing.B) {
	e := Event{TID: 1, Kind: Store, Addr: memory.PersistentBase, Size: 8, Val: 42}
	w := NewWriter(io.Discard)
	b.SetBytes(recordSize)
	for i := 0; i < b.N; i++ {
		w.Emit(e)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 10000; i++ {
		w.Emit(Event{TID: 1, Kind: Store, Addr: memory.PersistentBase, Size: 8, Val: uint64(i)})
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(recordSize)
	b.ResetTimer()
	n := 0
	for n < b.N {
		r := NewReader(bytes.NewReader(data))
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
			if n >= b.N {
				break
			}
		}
	}
}

// BenchmarkTraceEmit measures appending events. One op fills one chunk
// (chunkCap events) and then releases the trace's storage to the chunk
// pool, after an untimed op that warms the pool. So even a -benchtime
// 1x run times thousands of appends into a pooled chunk, the steady
// state of a tracing run, rather than one append behind a fresh chunk
// allocation. ns/event is the cost per append.
func BenchmarkTraceEmit(b *testing.B) {
	var tr Trace
	e := Event{TID: 0, Kind: Store, Addr: memory.PersistentBase, Size: 8}
	fill := func() {
		for range chunkCap {
			tr.Emit(e)
		}
		tr.Release()
	}
	fill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chunkCap, "ns/event")
}

// BenchmarkTraceReplay measures a full walk over chunked storage — the
// loop every simulator replay pays per model.
func BenchmarkTraceReplay(b *testing.B) {
	tr := &Trace{}
	for i := 0; i < 100000; i++ {
		tr.Emit(Event{TID: int32(i % 4), Kind: Store, Addr: memory.PersistentBase + memory.Addr(i%4096*8), Size: 8, Val: uint64(i)})
	}
	b.SetBytes(int64(tr.Len()) * 30)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, c := range tr.Chunks() {
			for _, v := range c.Vals() {
				sink += v
			}
		}
	}
	_ = sink
	b.ReportMetric(float64(tr.Len()), "events/op")
}

// TestTraceReplayAllocs pins replay allocation behavior: walking a
// trace via Chunks must not allocate at all, and the All iterator may
// only pay its fixed closure setup.
func TestTraceReplayAllocs(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 20000; i++ {
		tr.Emit(Event{TID: int32(i % 2), Kind: Store, Addr: memory.PersistentBase + memory.Addr(i%512*8), Size: 8})
	}
	var sink uint64
	if allocs := testing.AllocsPerRun(10, func() {
		for _, c := range tr.Chunks() {
			for _, v := range c.Vals() {
				sink += v
			}
		}
	}); allocs != 0 {
		t.Errorf("Chunks walk allocated %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for e := range tr.All() {
			sink += e.Val
		}
	}); allocs > 4 {
		t.Errorf("All walk allocated %.1f times, want <= 4 (fixed iterator setup)", allocs)
	}
	_ = sink
}

// TestTraceEmitAllocs pins the amortized emit cost: with the chunk pool
// warm, building and releasing a trace costs a bounded number of
// allocations regardless of event count (chunks are recycled).
func TestTraceEmitAllocs(t *testing.T) {
	const events = 3 * chunkCap
	// Warm the chunk pool.
	warm := &Trace{}
	for i := 0; i < events; i++ {
		warm.Emit(Event{Kind: Store, Addr: memory.PersistentBase, Size: 8})
	}
	warm.Release()
	allocs := testing.AllocsPerRun(20, func() {
		tr := &Trace{}
		for i := 0; i < events; i++ {
			tr.Emit(Event{Kind: Store, Addr: memory.PersistentBase, Size: 8})
		}
		tr.Release()
	})
	// Allowed residue: the Trace itself, the chunks slice headers, and
	// occasional pool misses under GC; not per-event or per-chunk-body
	// storage.
	if allocs > 12 {
		t.Errorf("emit+release of %d events allocated %.1f times, want <= 12", events, allocs)
	}
}
