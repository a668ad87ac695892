package observer

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
)

// traceQueueChecked runs a queue workload and returns the trace plus a
// campaign-grade recovery adapter: salvage recovery followed by
// application-invariant validation (every surviving payload must be
// one the workload actually inserted, in offset order, no duplicates).
func traceQueueChecked(t *testing.T, cfg queue.Config, threads, perThread int, seed int64) (*trace.Trace, CheckedRecoverFunc) {
	t.Helper()
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: threads, Seed: seed, Sink: tr})
	s := m.SetupThread()
	q, err := queue.New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := q.Meta()
	// Precomputed outside m.Run: simulated threads are goroutines, and
	// a shared map write inside them is a (host-level) data race.
	expect := make(map[string]bool)
	for tid := 0; tid < threads; tid++ {
		for i := 0; i < perThread; i++ {
			expect[string(queue.MakePayload(uint64(tid)*1000+uint64(i), 48))] = true
		}
	}
	m.Run(func(th *exec.Thread) {
		for i := 0; i < perThread; i++ {
			id := uint64(th.TID())*1000 + uint64(i)
			q.Insert(th, queue.MakePayload(id, 48))
		}
	})
	return tr, func(im *memory.Image) (fault.RecoveryReport, error) {
		entries, rep, err := queue.RecoverSalvage(im, meta)
		if err != nil {
			return rep, err
		}
		var lastOff uint64
		for i, e := range entries {
			if !expect[string(e.Payload)] {
				return rep, fmt.Errorf("entry %d carries a payload never inserted", i)
			}
			if i > 0 && e.Offset <= lastOff {
				return rep, fmt.Errorf("entry %d out of order", i)
			}
			lastOff = e.Offset
		}
		return rep, nil
	}
}

func TestCampaignQueueCleanUnderFaults(t *testing.T) {
	for _, d := range []queue.Design{queue.CWL, queue.TwoLock} {
		tr, rec := traceQueueChecked(t, queue.Config{
			DataBytes: 1 << 13, Design: d, Policy: core.PolicyEpoch, MaxThreads: 2,
		}, 2, 6, 11)
		out, err := Campaign(tr, core.Params{Model: core.Epoch}, rec, CampaignConfig{
			Scenarios: 300, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Clean() {
			t.Fatalf("design %v: campaign not clean: %s\nfirst: %v (%v)",
				d, out.String(), out.FirstFailure, out.FirstError)
		}
		if out.Masked == 0 || out.Salvaged == 0 {
			t.Fatalf("design %v: degenerate campaign (no masked or no salvaged): %s", d, out.String())
		}
		if out.Scenarios != 300 {
			t.Fatalf("ran %d scenarios, want 300", out.Scenarios)
		}
	}
}

func TestCampaignDeterministicFromSeed(t *testing.T) {
	run := func() CampaignOutcome {
		tr, rec := traceQueueChecked(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
		}, 1, 8, 3)
		out, err := Campaign(tr, core.Params{Model: core.Epoch}, rec, CampaignConfig{Scenarios: 120, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("same seed, different campaigns:\n%s\n%s", a.String(), b.String())
	}
}

func TestCampaignFindsBrokenBarrierAndReplays(t *testing.T) {
	build := func() (*trace.Trace, CheckedRecoverFunc) {
		return traceQueueChecked(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
			BreakDataHeadOrder: true,
		}, 1, 8, 5)
	}
	tr, rec := build()
	out, err := Campaign(tr, core.Params{Model: core.Epoch}, rec, CampaignConfig{Scenarios: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.AnnotationCorrupt == 0 || out.FirstFailure == nil {
		t.Fatalf("broken barrier not found: %s", out.String())
	}
	if out.FirstFailureClass != AnnotationCorrupt {
		t.Fatalf("first failure class %v, want annotation-corrupt", out.FirstFailureClass)
	}
	// The minimized repro must survive a text round trip and reproduce
	// the failure deterministically on a freshly rebuilt workload.
	line := out.FirstFailure.Repro()
	parsed, err := fault.ParseRepro(line)
	if err != nil {
		t.Fatalf("emitted repro %q does not parse: %v", line, err)
	}
	tr2, rec2 := build()
	class, rerr := Replay(tr2, core.Params{Model: core.Epoch}, rec2, parsed, CampaignConfig{}.Device)
	if rerr == nil || class != AnnotationCorrupt {
		t.Fatalf("replay of %q = %v (%v), want annotation-corrupt with error", line, class, rerr)
	}
}

// TestMinimizeScenarioNeverGrows pins the minimizer guarantee: the
// minimized plan and cut are never larger than what the campaign
// sampled, and the minimized scenario still fails.
func TestMinimizeScenarioNeverGrows(t *testing.T) {
	tr, _ := traceQueueChecked(t, queue.Config{
		DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
	}, 1, 6, 17)
	g, err := graph.Build(tr, core.Params{Model: core.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Full()
	p := fault.Plan{Faults: []fault.Fault{
		{Kind: fault.Retry, Node: 1, Attempts: 2},
		{Kind: fault.Drop, Node: g.Frontier(c)[0]},
		{Kind: fault.FlipSilent, Addr: memory.PersistentBase, Bit: 3},
	}}
	// Synthetic failure predicate: the scenario "fails" while it keeps
	// a Drop fault and node 0 in the cut.
	bad := func(c2 graph.Cut, p2 fault.Plan) bool {
		hasDrop := false
		for _, f := range p2.Faults {
			hasDrop = hasDrop || f.Kind == fault.Drop
		}
		return hasDrop && c2.Included[0]
	}
	mc, mp := MinimizeScenario(g, c, p, bad, 10000)
	if !bad(mc, mp) {
		t.Fatal("minimized scenario no longer fails")
	}
	if mp.Len() > p.Len() || mc.Size() > c.Size() {
		t.Fatalf("minimization grew the scenario: plan %d→%d, cut %d→%d",
			p.Len(), mp.Len(), c.Size(), mc.Size())
	}
	if mp.Len() != 1 {
		t.Fatalf("minimized plan has %d faults, want exactly the load-bearing drop", mp.Len())
	}
	// The cut should have shrunk substantially: only node 0's downward
	// closure is load-bearing.
	if mc.Size() >= c.Size() {
		t.Fatalf("cut did not shrink: %d of %d nodes", mc.Size(), c.Size())
	}
	// Budget exhaustion degrades to the unminimized scenario, never an
	// invalid one.
	bc, bp := MinimizeScenario(g, c, p, bad, 1)
	if !bad(bc, bp) || bp.Len() > p.Len() {
		t.Fatal("budgeted minimization broke the scenario")
	}
}
