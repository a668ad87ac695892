package repro

// End-to-end integration tests: the full pipeline — simulated
// execution → trace → persistency models → constraint DAG → recovery
// observer — exercised the way the tools and examples drive it.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/queue"
	"repro/internal/trace"
)

// TestEndToEndPipeline walks one workload through every layer.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Execute and trace.
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 2, Seed: 42, Sink: tr})
	s := m.SetupThread()
	q := queue.MustNew(s, queue.Config{DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch})
	meta := q.Meta()
	m.Run(func(th *exec.Thread) {
		for i := 0; i < 8; i++ {
			id := uint64(th.TID())<<16 | uint64(i)
			th.BeginWork(id)
			q.Insert(th, queue.MakePayload(id, 64))
			th.EndWork(id)
		}
	})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// 2. Timing simulation across models: relaxation hierarchy.
	var cps []int64
	for _, model := range []core.Model{core.Strand, core.Epoch, core.Strict} {
		r, err := core.Simulate(tr, core.Params{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if r.WorkItems != 16 {
			t.Fatalf("%v: work items %d", model, r.WorkItems)
		}
		cps = append(cps, r.CriticalPath)
	}
	if !(cps[0] <= cps[1] && cps[1] < cps[2]) {
		t.Fatalf("hierarchy violated: strand %d epoch %d strict %d", cps[0], cps[1], cps[2])
	}

	// 3. Constraint DAG agrees with the simulator (no coalescing).
	g, err := graph.Build(tr, core.Params{Model: core.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	rNoCo, err := core.Simulate(tr, core.Params{Model: core.Epoch, NoCoalescing: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.CriticalPath() != rNoCo.CriticalPath {
		t.Fatalf("graph %d vs sim %d", g.CriticalPath(), rNoCo.CriticalPath)
	}

	// 4. Full-cut materialization equals machine memory, and recovery
	// returns every entry.
	im := g.Materialize(g.Full())
	if !im.Equal(m.PersistentImage()) {
		t.Fatal("materialized image differs from machine memory")
	}
	entries, err := queue.Recover(im, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 {
		t.Fatalf("recovered %d entries", len(entries))
	}

	// 5. Observer: adversarial sweep is clean.
	rec := func(im *memory.Image) error {
		_, err := queue.Recover(im, meta)
		return err
	}
	out, err := observer.Adversarial(tr, core.Params{Model: core.Epoch}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllRecovered() {
		t.Fatalf("observer: %v", out)
	}
}

// TestTraceCodecRoundTripsWorkload checks the on-disk trace format on a
// real workload, and that the decoded trace simulates identically.
func TestTraceCodecRoundTripsWorkload(t *testing.T) {
	tr, err := bench.Trace(bench.Workload{Design: queue.TwoLock, Policy: core.PolicyRacingEpoch, Threads: 3, Inserts: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Simulate(tr, core.Params{Model: core.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Simulate(back, core.Params{Model: core.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if a.CriticalPath != b.CriticalPath || a.Persists != b.Persists {
		t.Fatalf("decoded trace simulates differently: %+v vs %+v", a, b)
	}
}

// TestDeterministicTable1Row pins one full Table 1 cell end to end.
func TestDeterministicTable1Row(t *testing.T) {
	w := bench.Workload{Design: queue.CWL, Policy: core.PolicyEpoch, Threads: 1, Inserts: 500, PayloadLen: 100, Seed: 42}
	r, err := bench.Simulate(w, core.Params{Model: core.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if r.CriticalPath != 2*500+1 {
		t.Fatalf("epoch CWL critical path = %d, want 1001", r.CriticalPath)
	}
	rate := r.PersistBoundRate(500 * time.Nanosecond)
	if rate < 0.9e6 || rate > 1.1e6 {
		t.Fatalf("persist-bound rate = %v, want ~1M/s", rate)
	}
}
