package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/trace"
)

// FuzzBuildMatchesRef checks the production builder against the
// reference builder (refbuild_test.go) on fuzzed traces: under every
// model, Build's graph must match refBuild's node for node
// (requireSameGraph: a subsequence of the reference's edges with the
// same transitive closure and equal class counts), and every cover
// label claim must hold (checkLabels). The builder skips unions it has
// proven to be no-ops by version, so a version that outlived its set's
// contents, or a subset fact recorded for the wrong pair, shows up here
// as a missing edge. The graph's Barriers must equal the reference
// builder's per-annotation report, each Redundant flag judged from the
// reference builder's sets, in one exactly sized slice.
//
//	go test -fuzz=FuzzBuildMatchesRef -fuzztime=30s -run '^$' ./internal/graph
func FuzzBuildMatchesRef(f *testing.F) {
	f.Add([]byte{0, 0, 2, 0, 12, 1, 10, 0, 6, 0, 2, 1, 0, 0, 2, 2})
	f.Add([]byte{1, 1, 3, 3, 11, 0, 0, 3, 19, 2, 6, 0, 12, 2, 4, 133, 8, 0, 2, 0})
	f.Add([]byte{2, 0, 2, 0, 22, 1, 33, 0, 13, 2, 7, 0, 5, 1, 4, 1, 16, 0, 2, 0, 1, 1, 12, 1})
	f.Add([]byte("persist-order graphs from fuzzed traces: loads, stores, RMWs, barriers"))
	// Longer random inputs give the fuzzer traces as long as the
	// differential tests' from the start.
	for seed := int64(0); seed < 4; seed++ {
		data := make([]byte, 2+2*200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// A persist-heavy seed: over 128 persists, so the dense frontier
	// sets' 32-id windows span several words and slide as ids grow.
	f.Add(persistHeavySeed(f, 250))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, gran := decodeFuzzTrace(data)
		for _, m := range core.Models {
			p := core.Params{Model: m, TrackingGranularity: gran}
			ctx := fmt.Sprintf("model %v gran %d", m, gran)
			want, wantInfos := refBuildWithBarriers(t, tr, p)
			got, err := Build(tr, p)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, ctx+" Build", got, want)
			if tr.CountPersists() > 0 {
				checkLabels(t, ctx, tr, p)
			}
			if got.Params != p {
				t.Fatalf("%s: graph records params %+v", ctx, got.Params)
			}
			infos := got.Barriers
			if len(infos) != len(wantInfos) || cap(infos) != len(infos) {
				t.Fatalf("%s: %d barrier infos (cap %d), reference %d", ctx, len(infos), cap(infos), len(wantInfos))
			}
			for i, in := range infos {
				if in != wantInfos[i] {
					t.Fatalf("%s: barrier %d is %+v, reference %+v", ctx, i, in, wantInfos[i])
				}
			}
		}
	})
}

// persistHeavySeed returns fuzz bytes for a trace of events events,
// about two thirds of them persists and the rest any kind, spread over
// three threads.
func persistHeavySeed(f *testing.F, events int) []byte {
	rng := rand.New(rand.NewSource(25))
	data := []byte{1, 0}
	for i := 0; i < events; i++ {
		kind := byte(rng.Intn(10))
		if rng.Intn(3) > 0 {
			kind = 2
		}
		data = append(data, byte(10*rng.Intn(25))+kind, byte(rng.Intn(256)))
	}
	if tr, _ := decodeFuzzTrace(data); tr.CountPersists() <= 128 {
		f.Fatalf("persist-heavy seed has %d persists", tr.CountPersists())
	}
	return data
}

// decodeFuzzTrace turns fuzz bytes into a small trace. The first byte
// picks 2–4 threads, the second word or 32-byte tracking granularity;
// each later pair of bytes is one event. The first byte of a pair
// picks the kind and the thread. The second picks one of six
// persistent or four volatile words, and with its high bit set shifts
// the access by half a word so it spans two tracking blocks.
func decodeFuzzTrace(data []byte) (*trace.Trace, uint64) {
	tr := &trace.Trace{}
	if len(data) < 2 {
		return tr, 0
	}
	threads := 2 + int(data[0]%3)
	gran := uint64(0)
	if data[1]&1 == 1 {
		gran = 32
	}
	data = data[2:]
	const maxEvents = 256
	for i := 0; i+1 < len(data) && i < 2*maxEvents; i += 2 {
		op, arg := data[i], data[i+1]
		tid := int32(int(op/10) % threads)
		off := memory.Addr(0)
		if arg&0x80 != 0 {
			off = memory.WordSize / 2
		}
		paddr := memory.PersistentBase + memory.Addr(arg%6)*memory.WordSize + off
		vaddr := memory.VolatileBase + memory.Addr(arg%4)*memory.WordSize + off
		val := uint64(i)
		var e trace.Event
		switch op % 10 {
		case 0:
			e = trace.Event{Kind: trace.Load, Addr: paddr, Size: 8}
		case 1:
			e = trace.Event{Kind: trace.Load, Addr: vaddr, Size: 8}
		case 2, 9:
			e = trace.Event{Kind: trace.Store, Addr: paddr, Size: 8, Val: val}
		case 3:
			e = trace.Event{Kind: trace.Store, Addr: vaddr, Size: 8, Val: val}
		case 4:
			e = trace.Event{Kind: trace.RMW, Addr: paddr, Size: 8, Val: val}
		case 5:
			e = trace.Event{Kind: trace.RMW, Addr: vaddr, Size: 8, Val: val}
		case 6:
			e = trace.Event{Kind: trace.PersistBarrier}
		case 7:
			e = trace.Event{Kind: trace.NewStrand}
		case 8:
			e = trace.Event{Kind: trace.PersistSync}
		}
		e.TID = tid
		tr.Emit(e)
	}
	return tr, gran
}

// refBuildWithBarriers is refBuild plus a per-annotation effect report
// computed from the reference builder's plain sets, by the rule
// BarrierInfo documents.
func refBuildWithBarriers(t *testing.T, tr *trace.Trace, p core.Params) (*Graph, []BarrierInfo) {
	t.Helper()
	b, err := newRefBuilder(p)
	if err != nil {
		t.Fatal(err)
	}
	b.g.Grow(tr.CountPersists())
	var infos []BarrierInfo
	epochs := map[int32]int64{}
	for e := range tr.All() {
		if e.Kind.IsAnnotation() {
			epochs[e.TID]++
			infos = append(infos, BarrierInfo{
				Seq: e.Seq, TID: e.TID, Kind: e.Kind, Epoch: epochs[e.TID],
				Redundant: b.refRedundant(e),
			})
		}
		if err := b.feed(e); err != nil {
			t.Fatal(err)
		}
	}
	return b.g, infos
}

// refRedundant reports whether feeding annotation e would change no
// reference-builder state.
func (b *refBuilder) refRedundant(e trace.Event) bool {
	t := b.threads[e.TID]
	switch {
	case e.Kind == trace.PersistBarrier && !b.barriers,
		e.Kind == trace.NewStrand && !b.strands,
		t == nil:
		return true
	case e.Kind == trace.NewStrand:
		return len(t.active) == 0 && len(t.pending) == 0 && len(t.epochMax) == 0
	case len(t.epochMax) > 0:
		return false
	}
	for id := range t.pending {
		if _, ok := t.active[id]; !ok {
			return false
		}
	}
	return true
}
