package workload

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

func TestKVGenDeterminism(t *testing.T) {
	g := KVGen{Seed: 11, Keys: 1 << 12, ZipfS: 1.2, ReadFrac: 0.8}
	a, b := g.Schedule(3, 500), g.Schedule(3, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between identical schedules: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A schedule is a stream: asking for a prefix yields the prefix.
	p := g.Schedule(3, 100)
	for i := range p {
		if p[i] != a[i] {
			t.Fatalf("prefix op %d = %+v, full schedule has %+v", i, p[i], a[i])
		}
	}
	// Different threads and different seeds draw different streams.
	other := g.Schedule(4, 500)
	g2 := g
	g2.Seed = 12
	reseeded := g2.Schedule(3, 500)
	same := func(x []KVOp) bool {
		for i := range x {
			if x[i] != a[i] {
				return false
			}
		}
		return true
	}
	if same(other) {
		t.Fatal("threads 3 and 4 drew identical streams")
	}
	if same(reseeded) {
		t.Fatal("seeds 11 and 12 drew identical streams")
	}
}

func TestKVGenZipfRankFrequency(t *testing.T) {
	// Empirical rank-ordered frequencies must track the theoretical
	// Zipf mass p(r) ∝ 1/(1+r)^s. With n = 200k draws the head ranks
	// have tens of thousands of samples, so 15% relative tolerance is
	// loose enough to be flake-free and tight enough to catch a wrong
	// (or uniform) distribution.
	const n, s = 200000, 1.3
	g := KVGen{Seed: 42, Keys: 1 << 16, ZipfS: s, ReadFrac: 0.5}
	counts := map[uint64]int{}
	for _, op := range g.Schedule(0, n) {
		counts[op.Key]++
	}
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))

	// Theoretical mass of rank r over the full key space.
	var norm float64
	for k := uint64(0); k < g.Keys; k++ {
		norm += math.Pow(1+float64(k), -s)
	}
	for r := 0; r < 8; r++ {
		want := math.Pow(1+float64(r), -s) / norm
		got := float64(freqs[r]) / n
		if rel := math.Abs(got-want) / want; rel > 0.15 {
			t.Fatalf("rank %d: empirical mass %.4f, theoretical %.4f (rel err %.2f)", r, got, want, rel)
		}
	}
	// Skew sanity: the hottest key dominates a uniform draw's share by
	// orders of magnitude.
	if uniform := float64(n) / float64(g.Keys); float64(freqs[0]) < 100*uniform {
		t.Fatalf("top key drew %d of %d — not Zipfian", freqs[0], n)
	}
}

func TestKVGenReadWriteMix(t *testing.T) {
	const n = 100000
	for _, frac := range []float64{0, 0.5, 0.9, 1} {
		g := KVGen{Seed: 7, Keys: 1024, ZipfS: 1.1, ReadFrac: frac}
		reads := 0
		for _, op := range g.Schedule(1, n) {
			if op.Read {
				reads++
			}
		}
		got := float64(reads) / n
		// Exact at the endpoints; within ±0.01 of the target otherwise
		// (3-sigma for n=100k is ~0.005).
		if frac == 0 || frac == 1 {
			if got != frac {
				t.Fatalf("frac %v: observed %v", frac, got)
			}
		} else if math.Abs(got-frac) > 0.01 {
			t.Fatalf("frac %v: observed %v", frac, got)
		}
	}
}

// kvOpts is a small kv run with the given shape.
func kvOpts(shards int, keys uint64, threads, ops int, readFrac float64, seed int64) Options {
	o := defaults()
	o.Workload = "kv"
	o.Shards, o.Keys, o.Threads, o.Inserts, o.ReadFrac, o.Seed = shards, keys, threads, ops, readFrac, seed
	return o
}

// TestKVOptionsParamsRoundTrip pins the kv repro line: its keys in
// print order (ops for the operation count, model last) and a round
// trip back to the same options.
func TestKVOptionsParamsRoundTrip(t *testing.T) {
	o := kvOpts(16, 1<<20, 128, 1<<20, 0.9, 31)
	o.Policy, o.Model, o.Integrity = core.PolicyStrand, core.Epoch, true
	s := fault.Scenario{Params: o.Params()}
	const want = "workload=kv,policy=strand,shards=16,keys=1048576,threads=128,ops=1048576,read-frac=0.9,zipf=1.1,seed=31,integrity=1,model=epoch"
	if got := s.Repro(); !strings.Contains(got, "|"+want+"|") {
		t.Fatalf("kv repro %s, want params %s", got, want)
	}
	o2, err := FromScenario(&s)
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o {
		t.Fatalf("round trip:\n got %+v\nwant %+v", o2, o)
	}
	for _, bad := range []fault.Param{{Key: "policy", Value: "bogus"}, {Key: "ops", Value: "x"}, {Key: "read-frac", Value: "NaN"}} {
		ps := []fault.Param{{Key: "workload", Value: "kv"}, bad}
		if _, err := FromScenario(&fault.Scenario{Params: ps}); err == nil {
			t.Errorf("bad %s=%s accepted", bad.Key, bad.Value)
		}
	}
}

// TestBuildKVAdapter pins the deprecated KVOptions path: BuildKV traces
// what Build does for the same kv options, with no extra allocation.
func TestBuildKVAdapter(t *testing.T) {
	k := KVOptions{
		Shards: 2, Keys: 8, Threads: 2, Ops: 8, ReadFrac: 0.5, ZipfS: 1.1,
		Policy: core.PolicyStrand, Seed: 7,
	}
	o := kvOpts(2, 8, 2, 8, 0.5, 7)
	o.Policy, o.Model = core.PolicyStrand, core.Strand
	a, err := BuildKV(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Trace.Equal(b.Trace) || a.Describe != b.Describe {
		t.Fatalf("BuildKV and Build differ: %q vs %q", a.Describe, b.Describe)
	}
	if raceEnabled {
		return // sync.Pool drops puts at random under -race: counts vary
	}
	viaKV := testing.AllocsPerRun(5, func() { _, _ = BuildKV(k, nil) })
	direct := testing.AllocsPerRun(5, func() { _, _ = Build(o, nil) })
	if viaKV != direct {
		t.Errorf("BuildKV makes %v allocations per call, Build %v", viaKV, direct)
	}
}

func TestBuildKVIsDeterministicAndCacheable(t *testing.T) {
	o := kvOpts(4, 256, 3, 90, 0.7, 5)
	direct, err := Build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := bench.NewTraceCache(4)
	cached, err := Build(o, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !cached.Trace.Equal(direct.Trace) {
		t.Fatal("cached build traces a different execution")
	}
	again, err := Build(o, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Trace.Equal(direct.Trace) {
		t.Fatal("cache hit returned a different trace")
	}
	for _, run := range []*Run{direct, cached, again} {
		if run.Recover == nil || run.Checked == nil || run.SiteLabel == nil ||
			len(run.Checks.Pubs) == 0 || run.Describe == "" {
			t.Fatalf("run not fully wired: %+v", run)
		}
	}
	// Every scheduled op traces a completed work item, and the write
	// share of the mix reaches the journals as persists.
	sum := trace.Summarize(direct.Trace)
	if sum.WorkItems != o.Inserts {
		t.Fatalf("traced %d work items, scheduled %d ops", sum.WorkItems, o.Inserts)
	}
	if sum.Persists == 0 {
		t.Fatal("no persists traced")
	}
}

// TestBuildKVValidation pins the generator-input checks every KV build
// path shares: bad thread/op counts, an empty key space, zero shards,
// NaN or out-of-range read fractions and NaN, infinite or negative Zipf
// skews are refused, while the boundary values run.
func TestBuildKVValidation(t *testing.T) {
	base := kvOpts(2, 8, 2, 8, 0.5, 1)
	cases := []struct {
		name string
		edit func(*Options)
		ok   bool
	}{
		{"valid", func(*Options) {}, true},
		{"zero-threads", func(o *Options) { o.Threads = 0 }, false},
		{"ops-below-threads", func(o *Options) { o.Threads, o.Inserts = 4, 2 }, false},
		{"empty-key-space", func(o *Options) { o.Keys = 0 }, false},
		{"zero-shards", func(o *Options) { o.Shards = 0 }, false},
		{"all-writes", func(o *Options) { o.ReadFrac = 0 }, true},
		{"all-reads", func(o *Options) { o.ReadFrac = 1 }, true},
		{"uniform-keys", func(o *Options) { o.ZipfS = 0 }, true},
		{"read-frac-above-one", func(o *Options) { o.ReadFrac = 1.5 }, false},
		{"read-frac-negative", func(o *Options) { o.ReadFrac = -0.1 }, false},
		{"read-frac-nan", func(o *Options) { o.ReadFrac = math.NaN() }, false},
		{"zipf-negative", func(o *Options) { o.ZipfS = -1 }, false},
		{"zipf-nan", func(o *Options) { o.ZipfS = math.NaN() }, false},
		{"zipf-plus-inf", func(o *Options) { o.ZipfS = math.Inf(1) }, false},
		{"zipf-minus-inf", func(o *Options) { o.ZipfS = math.Inf(-1) }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := base
			c.edit(&o)
			if _, err := Build(o, nil); (err == nil) != c.ok {
				t.Fatalf("Build error = %v, want ok=%v", err, c.ok)
			}
		})
	}
}
