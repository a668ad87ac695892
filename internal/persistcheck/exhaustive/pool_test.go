package exhaustive

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// checkWith runs e.check on g, run's graph, with run's recovery.
func checkWith(t *testing.T, e *enumerator, g *graph.Graph, run *workload.Run, cfg Config) *Result {
	t.Helper()
	res, err := e.check(g, g.Params.Model, run.Checked, cfg)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return res
}

// TestEnumeratorReuseLeaksNothing checks a hazardous fixture, then a
// larger clean one, then the first again, on one enumerator and
// through the pool: both results of the hazardous fixture must be
// identical and equal a fresh enumerator's, and its first
// counterexample must be unchanged by the later checks.
func TestEnumeratorReuseLeaksNothing(t *testing.T) {
	hrun, hopts, hmodel := buildRun(t, fixture{wl: "pstm", policy: "racing", threads: 2, inserts: 6})
	crun, _, cmodel := buildRun(t, fixture{wl: "journal", policy: "epoch", threads: 2, inserts: 4, sparse: true})
	hg, cg := buildGraph(t, hrun, hmodel), buildGraph(t, crun, cmodel)
	for _, par := range []int{1, 4} {
		cfg := Config{ReproParams: hopts.Params(), Sweep: sweep.Config{Parallel: par}}
		want := checkWith(t, newEnumerator(), hg, hrun, cfg)
		if want.Verdict != Hazardous || want.Counterexample == nil {
			t.Fatalf("fixture is not hazardous: %v", want.Verdict)
		}
		e := newEnumerator()
		first := checkWith(t, e, hg, hrun, cfg)
		cut, repro := slices.Clone(first.Counterexample.Cut.Included), first.Counterexample.Repro
		clean := checkWith(t, e, cg, crun, Config{Sweep: sweep.Config{Parallel: par}})
		if clean.Verdict != DurablyLinearizable || clean.States <= want.States {
			t.Fatalf("second fixture: %v with %d states, want a clean and larger space than %d", clean.Verdict, clean.States, want.States)
		}
		again := checkWith(t, e, hg, hrun, cfg)
		pooled := check(t, hg, hrun, cfg)
		for name, got := range map[string]*Result{"first": first, "again": again, "pooled": pooled} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("parallel %d: %s result differs from a fresh enumerator's:\n%s\nwant\n%s", par, name, got, want)
			}
		}
		if !slices.Equal(first.Counterexample.Cut.Included, cut) || first.Counterexample.Repro != repro {
			t.Errorf("parallel %d: the first counterexample changed under later checks", par)
		}
	}
}

// totalAlloc returns the bytes fn allocates.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWarmCheckAllocs guards the enumerator's reuse, in the style of
// core's TestSimulateAllocsPerEvent: on clean matrix fixtures a check on
// a used enumerator allocates under a quarter of what one on a fresh
// enumerator does.
func TestWarmCheckAllocs(t *testing.T) {
	for _, tc := range cleanMatrix {
		if tc.name != "journal-epoch" && tc.name != "kv-epoch" {
			continue
		}
		run, _, model := buildRun(t, tc.fx)
		g := buildGraph(t, run, model)
		cfg := Config{Sweep: sweep.Config{Parallel: 1}}
		e := newEnumerator()
		cold := totalAlloc(func() { checkWith(t, e, g, run, cfg) })
		warm := totalAlloc(func() { checkWith(t, e, g, run, cfg) })
		if warm*4 >= cold {
			t.Errorf("%s: warm check allocated %d bytes, cold %d: want under a quarter", tc.name, warm, cold)
		}
		t.Logf("%s: cold %d bytes, warm %d", tc.name, cold, warm)
	}
}

// TestConcurrentChecksMatchSequential runs pooled checks of different
// fixtures on several goroutines at once (run it under -race): each
// must equal its fixture's sequential result.
func TestConcurrentChecksMatchSequential(t *testing.T) {
	type job struct {
		g    *graph.Graph
		run  *workload.Run
		cfg  Config
		want *Result
	}
	var jobs []job
	for _, fx := range []fixture{
		{wl: "pstm", policy: "racing", threads: 2, inserts: 6},
		{wl: "queue", policy: "epoch", threads: 2, inserts: 6},
		{wl: "kv", policy: "epoch", threads: 2, inserts: 8, seed: 42},
		{wl: "journal", policy: "strict", threads: 2, inserts: 4, sparse: true},
	} {
		run, opts, model := buildRun(t, fx)
		g := buildGraph(t, run, model)
		cfg := Config{ReproParams: opts.Params(), Sweep: sweep.Config{Parallel: 2}}
		jobs = append(jobs, job{g: g, run: run, cfg: cfg, want: check(t, g, run, cfg)})
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 2 * len(jobs) {
				j := jobs[(w+r)%len(jobs)]
				got, err := CheckGraph(j.g, j.g.Params.Model, j.run.Recover, j.run.Checked, j.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					t.Errorf("worker %d, job %d: concurrent result differs:\n%s\nwant\n%s", w, (w+r)%len(jobs), got, j.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
