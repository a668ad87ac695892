package persistcheck_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/persistcheck"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/workload"
)

// requireMatchesScan checks tr under every model with the indexed
// passes (CheckGraph) and with the plain scans they replaced
// (ScanCheck), and requires equal Reports: findings in order with
// their messages, sites, cuts and repros, counts and skip notes.
func requireMatchesScan(t *testing.T, name string, tr *trace.Trace, ann persistcheck.Annotations, cfgs []persistcheck.Config) {
	t.Helper()
	for _, m := range core.Models {
		g, err := graph.Build(tr, core.Params{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range cfgs {
			got, err := persistcheck.CheckGraph(tr, g, ann, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := persistcheck.ScanCheck(tr, g, ann, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s under %v, config %d: indexed report\n%v\nscan report\n%v", name, m, ci, got, want)
			}
		}
	}
}

// TestCheckMatchesScan compares the indexed passes with the scans on
// every workload under every policy, in both layouts, and on the
// seeded hazards.
func TestCheckMatchesScan(t *testing.T) {
	bases := []workload.Options{
		{Workload: "queue", Design: queue.CWL},
		{Workload: "queue", Design: queue.TwoLock},
		{Workload: "journal"},
		{Workload: "pstm"},
		{Workload: "kv", Shards: 4, Keys: 64, ReadFrac: 0.5, ZipfS: 1.1},
		// At the tag-publication cap: 1024 tag words on 16 shards.
		{Workload: "kv", Shards: 16, Keys: 1024, ReadFrac: 0.25, ZipfS: 1.1},
	}
	var fixtures []workload.Options
	for _, o := range bases {
		for _, pol := range core.Policies {
			for _, integrity := range []bool{false, true} {
				o := o
				o.Policy, o.Model, o.Integrity = pol, pol.Model(), integrity
				fixtures = append(fixtures, o)
			}
		}
	}
	hazards := []workload.Options{
		{Workload: "queue", Design: queue.CWL, Policy: core.PolicyEpoch, BreakBar: true},
		{Workload: "queue", Design: queue.TwoLock, Policy: core.PolicyEpoch, OmitComp: true},
		{Workload: "journal", Policy: core.PolicyEpoch, BreakCommit: true},
		{Workload: "journal", Policy: core.PolicyStrand, OmitRecipe: true},
		{Workload: "journal", Policy: core.PolicyEpoch, BreakCommit: true, Integrity: true},
	}
	for _, o := range hazards {
		o.Model = o.Policy.Model()
		fixtures = append(fixtures, o)
	}
	for _, o := range fixtures {
		o.Threads, o.Inserts, o.Payload, o.Seed = 3, 24, 40, 7
		if o.Workload == "kv" {
			o.Threads, o.Inserts = 8, 96
		}
		name := fmt.Sprintf("%s/%v/%v/integrity=%v", o.Workload, o.Design, o.Policy, o.Integrity)
		run, err := workload.Build(o, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireMatchesScan(t, name, run.Trace, run.Checks, []persistcheck.Config{
			{ReproParams: o.Params(), SiteLabel: run.SiteLabel},
			{Limit: 2},
		})
	}
}

// fuzzBytes hands out a fuzz input byte by byte, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// fuzzWindow is the persistent window fuzzed accesses and annotations
// share, so that they overlap often.
const fuzzWindow = 64

// addr decodes an annotation address: mostly inside the window, with
// a few just below the top of the address space or just above zero so
// that spans wrap or clamp.
func (b *fuzzBytes) addr() memory.Addr {
	switch c := b.next(); {
	case c >= 0xf8:
		return memory.Addr(c & 7)
	case c >= 0xf0:
		return memory.Addr(math.MaxUint64 - uint64(c&7))
	default:
		return memory.PersistentBase + memory.Addr(c%fuzzWindow)
	}
}

// size decodes an annotation size: 0 to 47 bytes, or nearly 2^64.
func (b *fuzzBytes) size() uint64 {
	c := b.next()
	if c >= 0xf0 {
		return math.MaxUint64 - uint64(c&15)
	}
	return uint64(c % 48)
}

func (b *fuzzBytes) extents(n byte) []persistcheck.Extent {
	var xs []persistcheck.Extent
	for range n {
		xs = append(xs, persistcheck.Extent{Addr: b.addr(), Size: b.size()})
	}
	return xs
}

// decodeFuzzAnnotations reads up to four publications (word, flags,
// data extents, at least one for a ValueCovers word), three regions
// (address, size, covers) and two protected extents.
func decodeFuzzAnnotations(data []byte) persistcheck.Annotations {
	b := fuzzBytes(data)
	var ann persistcheck.Annotations
	for i := range b.next() % 5 {
		word, flags := b.addr(), b.next()
		pub := persistcheck.Publication{
			Name:        fmt.Sprintf("p%d", i),
			Word:        word,
			ValueCovers: flags&1 != 0,
			AllThreads:  flags&2 != 0,
		}
		n := flags >> 2 % 3
		if pub.ValueCovers {
			// A ValueCovers word's values are offsets into Data[0].
			n = max(n, 1)
		}
		pub.Data = b.extents(n)
		ann.Pubs = append(ann.Pubs, pub)
	}
	for i := range b.next() % 4 {
		reg := persistcheck.Region{Name: fmt.Sprintf("r%d", i), Addr: b.addr(), Size: b.size()}
		reg.Covers = b.extents(b.next() % 3)
		ann.OrderAfter = append(ann.OrderAfter, reg)
	}
	ann.Protected = b.extents(b.next() % 3)
	return ann
}

// decodeFuzzEvents reads up to 200 events of three bytes: thread and
// kind, window offset, size and value. Accesses may straddle words and
// extent ends; values stay small, so ValueCovers words wrap.
func decodeFuzzEvents(data []byte) *trace.Trace {
	tr := &trace.Trace{}
	kinds := [8]trace.Kind{trace.Store, trace.Store, trace.Store, trace.Load, trace.RMW,
		trace.PersistBarrier, trace.NewStrand, trace.PersistSync}
	for i := 0; i+3 <= len(data) && i < 600; i += 3 {
		a, off, c := data[i], data[i+1], data[i+2]
		e := trace.Event{TID: int32(a & 3), Kind: kinds[a>>2%8]}
		if e.Kind.IsAccess() {
			e.Addr = memory.PersistentBase + memory.Addr(off%fuzzWindow)
			e.Size, e.Val = 1+c&7, uint64(c>>3)
		}
		tr.Emit(e)
	}
	return tr
}

// FuzzCheckMatchesScan compares the indexed passes with the scans on
// random traces and random annotations over one small window.
func FuzzCheckMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	events := func(n int) []byte {
		data := make([]byte, 3*n)
		rng.Read(data)
		return data
	}
	// Annotation seeds; addresses below 0xf0 are window offsets.
	for _, ann := range [][]byte{
		// Overlapping and abutting data extents, and a region whose
		// covers abut.
		{2, 0, 2 << 2, 8, 16, 16, 8, 32, 1 << 2, 24, 8,
			1, 40, 8, 2, 0, 16, 16, 16, 0},
		// Empty Covers, and a zero-size region straddled by 8-byte
		// accesses.
		{0, 2, 12, 0, 0, 20, 8, 0, 0},
		// Zero-size extents in data, covers and protection.
		{1, 0, 2 << 2, 8, 0, 16, 8,
			1, 0, 8, 1, 24, 0, 1, 40, 0},
		// Extents whose ends fall mid-word.
		{1, 4, 1 << 2, 12, 13, 1, 20, 3, 1, 30, 5, 0},
		// A ValueCovers word over a 12-byte extent: values above 12
		// retire the word.
		{1, 0, 1 | 1<<2, 8, 12, 0, 0},
		// Three publications sharing a word: plain, AllThreads and
		// ValueCovers.
		{3, 0, 1 << 2, 8, 16, 0, 2 | 1<<2, 16, 16, 0, 1 | 1<<2, 8, 40, 0, 0},
		// Spans that wrap past the top or start near zero.
		{2, 0xf2, 1 << 2, 0xf5, 40, 0xfa, 1 << 2, 0xf8, 0xf3,
			2, 0xf1, 0xf4, 1, 0xfc, 0xf0, 0xf9, 20, 1, 8, 0xf1, 0},
	} {
		f.Add(events(150), ann)
	}
	for range 4 {
		ann := make([]byte, 40)
		rng.Read(ann)
		f.Add(events(200), ann)
	}
	f.Fuzz(func(t *testing.T, evs, anns []byte) {
		tr := decodeFuzzEvents(evs)
		ann := decodeFuzzAnnotations(anns)
		requireMatchesScan(t, "fuzz", tr, ann, []persistcheck.Config{
			{
				ReproParams: []fault.Param{{Key: "workload", Value: "fuzz"}},
				SiteLabel:   func(a memory.Addr) string { return fmt.Sprint(uint64(a) % 16) },
			},
			{Limit: 1},
		})
	})
}
