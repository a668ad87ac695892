package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/sweep"
)

func TestWorkloadNormalize(t *testing.T) {
	w := Workload{Design: queue.CWL}
	if err := w.normalize(); err != nil {
		t.Fatal(err)
	}
	if w.Threads != 1 || w.Inserts == 0 || w.PayloadLen != 100 {
		t.Fatalf("defaults: %+v", w)
	}
	if w.DataBytes%queue.SlotAlign != 0 {
		t.Fatal("auto-sized DataBytes unaligned")
	}
	if w.String() == "" {
		t.Fatal("empty workload name")
	}
}

func TestRunProducesExpectedWork(t *testing.T) {
	w := Workload{Design: queue.CWL, Policy: queue.PolicyEpoch, Threads: 3, Inserts: 10, PayloadLen: 40, Seed: 1}
	r, err := Simulate(w, core.Params{Model: core.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if r.WorkItems != 10 {
		t.Fatalf("work items = %d, want 10 (uneven split must still sum)", r.WorkItems)
	}
	if r.Persists == 0 || r.CriticalPath == 0 {
		t.Fatalf("no persists simulated: %+v", r)
	}
}

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(Table1Config{
		Inserts: 400, PayloadLen: 100, Threads: []int{1, 4},
		Latency: 500 * time.Nanosecond, InstrRate: 4e6, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*4 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(d queue.Design, p queue.Policy, th int) Table1Row {
		for _, r := range rows {
			if r.Design == d && r.Policy == p && r.Threads == th {
				return r
			}
		}
		t.Fatalf("missing row %v/%v/%d", d, p, th)
		return Table1Row{}
	}

	// Paper shape 1: strict persistency is persist-bound and far below
	// instruction rate; CWL 1T suffers roughly a 30× slowdown.
	s1 := get(queue.CWL, queue.PolicyStrict, 1)
	if s1.Normalized > 0.2 {
		t.Errorf("CWL/strict/1T normalized = %v, expected heavily persist-bound", s1.Normalized)
	}
	ppw := float64(s1.CriticalPath) / float64(s1.Result.WorkItems)
	if ppw < 10 || ppw > 25 {
		t.Errorf("CWL/strict/1T path per insert = %.1f, expected ~16", ppw)
	}

	// Paper shape 2: epoch persistency removes intra-insert
	// serialization: CWL 1T path per insert ≈ 2.
	e1 := get(queue.CWL, queue.PolicyEpoch, 1)
	eppw := float64(e1.CriticalPath) / float64(e1.Result.WorkItems)
	if eppw < 1.5 || eppw > 3.5 {
		t.Errorf("CWL/epoch/1T path per insert = %.2f, expected ~2", eppw)
	}
	if e1.Normalized <= s1.Normalized {
		t.Error("epoch should outperform strict")
	}

	// Paper shape 3: racing epochs equal epoch at one thread (races
	// cannot occur within one thread), and help at several threads.
	r1 := get(queue.CWL, queue.PolicyRacingEpoch, 1)
	if r1.CriticalPath != e1.CriticalPath {
		t.Errorf("racing (%d) != epoch (%d) at 1T", r1.CriticalPath, e1.CriticalPath)
	}
	e4 := get(queue.CWL, queue.PolicyEpoch, 4)
	r4 := get(queue.CWL, queue.PolicyRacingEpoch, 4)
	if r4.CriticalPath > e4.CriticalPath {
		t.Errorf("racing at 4T (%d) should not exceed epoch (%d)", r4.CriticalPath, e4.CriticalPath)
	}

	// Paper shape 4: strand reaches (or vastly exceeds) instruction
	// rate even single-threaded.
	st1 := get(queue.CWL, queue.PolicyStrand, 1)
	if st1.Normalized < 1 {
		t.Errorf("CWL/strand/1T normalized = %v, expected ≥ 1", st1.Normalized)
	}
	if st1.CriticalPath > e1.CriticalPath {
		t.Error("strand should relax epoch further")
	}

	// Paper shape 5: 2LC under strict persistency is persist-bound and
	// roughly thread-insensitive (everything serializes).
	t2s1 := get(queue.TwoLock, queue.PolicyStrict, 1)
	t2s4 := get(queue.TwoLock, queue.PolicyStrict, 4)
	if t2s1.Normalized > 0.2 || t2s4.Normalized > 0.2 {
		t.Errorf("2LC/strict normalized = %v / %v, expected persist-bound", t2s1.Normalized, t2s4.Normalized)
	}
}

func TestRenderTable1(t *testing.T) {
	rows, err := Table1(Table1Config{Inserts: 100, Threads: []int{1}, InstrRate: 1e6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable1(rows).String()
	for _, col := range []string{"cwl/strict", "2lc/strand", "threads"} {
		if !strings.Contains(out, col) {
			t.Fatalf("missing column %q in:\n%s", col, out)
		}
	}
}

func TestFig3ShapeAndBreakEven(t *testing.T) {
	points, err := Fig3(Fig3Config{Inserts: 400, InstrRate: 4e6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Rates must be non-increasing in latency for each policy, and at
	// the lowest latency everything should be compute-bound.
	for _, pol := range Fig3Policies {
		var prev float64 = -1
		for _, p := range points {
			if p.Policy != pol {
				continue
			}
			if prev >= 0 && p.Rate > prev+1e-9 {
				t.Errorf("%v: rate increased with latency", pol)
			}
			prev = p.Rate
		}
	}
	// Break-even ordering: strict leaves the plateau first, strand last.
	bStrict := BreakEvenLatency(points, queue.PolicyStrict)
	bEpoch := BreakEvenLatency(points, queue.PolicyEpoch)
	bStrand := BreakEvenLatency(points, queue.PolicyStrand)
	if !(bStrict < bEpoch && bEpoch < bStrand) {
		t.Errorf("break-even ordering: strict %v, epoch %v, strand %v", bStrict, bEpoch, bStrand)
	}
	out := RenderFig3(points).String()
	if !strings.Contains(out, "latency") {
		t.Fatalf("fig3 rendering:\n%s", out)
	}
}

func TestFig4Shape(t *testing.T) {
	points, err := Fig4(GranularityConfig{Inserts: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	at := func(p queue.Policy, g uint64) float64 {
		for _, pt := range points {
			if pt.Policy == p && pt.Granularity == g {
				return pt.PathPerInsert
			}
		}
		t.Fatalf("missing point %v/%d", p, g)
		return 0
	}
	// Strict improves with atomic persist size; epoch stays flat; they
	// converge at 256 B (paper Figure 4).
	if !(at(queue.PolicyStrict, 8) > 3*at(queue.PolicyStrict, 256)) {
		t.Errorf("strict@8=%.2f should far exceed strict@256=%.2f", at(queue.PolicyStrict, 8), at(queue.PolicyStrict, 256))
	}
	if ratio := at(queue.PolicyEpoch, 256) / at(queue.PolicyEpoch, 8); ratio < 0.5 || ratio > 1.5 {
		t.Errorf("epoch should be insensitive to atomic size, ratio %.2f", ratio)
	}
	if ratio := at(queue.PolicyStrict, 256) / at(queue.PolicyEpoch, 256); ratio > 1.6 {
		t.Errorf("strict@256 (%.2f) should approach epoch@256 (%.2f)", at(queue.PolicyStrict, 256), at(queue.PolicyEpoch, 256))
	}
	if RenderGran(points, "atomic").String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestFig5Shape(t *testing.T) {
	points, err := Fig5(GranularityConfig{Inserts: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	at := func(p queue.Policy, g uint64) float64 {
		for _, pt := range points {
			if pt.Policy == p && pt.Granularity == g {
				return pt.PathPerInsert
			}
		}
		t.Fatalf("missing point %v/%d", p, g)
		return 0
	}
	// Coarse tracking reintroduces constraints: epoch degrades toward
	// strict; strict is unaffected (paper Figure 5).
	if !(at(queue.PolicyEpoch, 256) > 3*at(queue.PolicyEpoch, 8)) {
		t.Errorf("epoch@256=%.2f should far exceed epoch@8=%.2f", at(queue.PolicyEpoch, 256), at(queue.PolicyEpoch, 8))
	}
	if ratio := at(queue.PolicyStrict, 256) / at(queue.PolicyStrict, 8); ratio < 0.8 || ratio > 1.3 {
		t.Errorf("strict should be insensitive to tracking size, ratio %.2f", ratio)
	}
	if ratio := at(queue.PolicyEpoch, 256) / at(queue.PolicyStrict, 256); ratio < 0.5 || ratio > 1.5 {
		t.Errorf("epoch@256 (%.2f) should approach strict@256 (%.2f)", at(queue.PolicyEpoch, 256), at(queue.PolicyStrict, 256))
	}
}

func TestFig2Shape(t *testing.T) {
	rows, err := Fig2(20, 6, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := make(map[queue.Policy]Fig2Row)
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	// Same workload -> same persist count everywhere.
	n := byPolicy[queue.PolicyStrict].Persists
	for _, r := range rows {
		if r.Persists != n {
			t.Errorf("persist count differs: %v has %d, strict has %d", r.Policy, r.Persists, n)
		}
	}
	// Relaxation strictly reduces the critical path: strict > epoch ≥
	// racing ≥ strand (1 thread: epoch == racing).
	cp := func(p queue.Policy) int64 { return byPolicy[p].CriticalPath }
	if !(cp(queue.PolicyStrict) > cp(queue.PolicyEpoch)) {
		t.Errorf("strict CP %d should exceed epoch %d", cp(queue.PolicyStrict), cp(queue.PolicyEpoch))
	}
	if !(cp(queue.PolicyEpoch) >= cp(queue.PolicyStrand)) {
		t.Errorf("epoch CP %d should be ≥ strand %d", cp(queue.PolicyEpoch), cp(queue.PolicyStrand))
	}
	if RenderFig2(rows).String() == "" {
		t.Fatal("empty fig2 rendering")
	}
}

func TestNativeRatePositive(t *testing.T) {
	for _, d := range []queue.Design{queue.CWL, queue.TwoLock} {
		rate, err := NativeRate(Workload{Design: d, Threads: 2, Inserts: 5000, PayloadLen: 100})
		if err != nil {
			t.Fatal(err)
		}
		if rate <= 0 {
			t.Fatalf("%v: rate = %v", d, rate)
		}
	}
}

func TestUnbufferedRate(t *testing.T) {
	r := core.Result{Placed: 100, WorkItems: 10}
	// 10 persists/item × 1µs = 10µs/item plus 1µs instruction time.
	rate := UnbufferedRate(r, 1e6, time.Microsecond)
	if rate < 90e3*0.99 || rate > 91e3 {
		t.Fatalf("unbuffered rate = %v, want ~90.9k", rate)
	}
	if UnbufferedRate(core.Result{}, 1e6, time.Microsecond) != 0 {
		t.Fatal("zero work items should yield 0")
	}
}

func TestCoalesceWindowBoundsStrand(t *testing.T) {
	// With the paper's idealized unbounded coalescing, strand
	// persistency merges head-pointer persists essentially forever and
	// the critical path barely grows. A finite persist buffer
	// (CoalesceWindow) closes open persists, so head persists
	// periodically bump the path — strand stays far below epoch but is
	// no longer unbounded.
	w := Workload{Design: queue.CWL, Policy: queue.PolicyStrand, Threads: 1, Inserts: 600, Seed: 1}
	unbounded, err := Simulate(w, core.Params{Model: core.Strand})
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := Simulate(w, core.Params{Model: core.Strand, CoalesceWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	if windowed.CriticalPath <= unbounded.CriticalPath {
		t.Fatalf("finite window should ratchet the strand critical path: windowed %d, unbounded %d",
			windowed.CriticalPath, unbounded.CriticalPath)
	}
	epoch, err := Simulate(
		Workload{Design: queue.CWL, Policy: queue.PolicyEpoch, Threads: 1, Inserts: 600, Seed: 1},
		core.Params{Model: core.Epoch, CoalesceWindow: 64})
	if err != nil {
		t.Fatal(err)
	}
	if windowed.CriticalPath >= epoch.CriticalPath {
		t.Fatalf("windowed strand (%d) should still beat epoch (%d)", windowed.CriticalPath, epoch.CriticalPath)
	}
}

func TestOverwriteLogWorkload(t *testing.T) {
	// Overwrite mode wraps the buffer many times without panicking and
	// still produces a valid simulation.
	r, err := Simulate(
		Workload{Design: queue.CWL, Policy: queue.PolicyEpoch, Threads: 2, Inserts: 300, Seed: 2,
			DataBytes: 4096, Overwrite: true},
		core.Params{Model: core.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if r.WorkItems != 300 {
		t.Fatalf("work items = %d", r.WorkItems)
	}
}

func TestRacingPolicyActuallyRaces(t *testing.T) {
	// The paper's configurations by construction: the non-racing epoch
	// discipline (barriers around locks) produces no persist-epoch
	// races; the racing discipline produces them.
	races := func(pol queue.Policy) int {
		tr, err := Trace(Workload{Design: queue.CWL, Policy: pol, Threads: 4, Inserts: 40, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.DetectEpochRaces(tr, core.RaceConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total
	}
	if n := races(queue.PolicyEpoch); n != 0 {
		t.Errorf("non-racing epoch policy raced %d times", n)
	}
	if n := races(queue.PolicyRacingEpoch); n == 0 {
		t.Error("racing policy produced no persist-epoch races")
	}
}

func TestModelFor(t *testing.T) {
	if ModelFor(queue.PolicyStrict) != core.Strict ||
		ModelFor(queue.PolicyEpoch) != core.Epoch ||
		ModelFor(queue.PolicyRacingEpoch) != core.Epoch ||
		ModelFor(queue.PolicyStrand) != core.Strand {
		t.Fatal("policy-model pairing wrong")
	}
}
