package observer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
)

// traceQueue runs a queue workload and returns the trace + recovery
// adapter.
func traceQueue(t *testing.T, cfg queue.Config, threads, perThread int, seed int64) (*trace.Trace, RecoverFunc) {
	t.Helper()
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: threads, Seed: seed, Sink: tr})
	s := m.SetupThread()
	q, err := queue.New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := q.Meta()
	m.Run(func(th *exec.Thread) {
		for i := 0; i < perThread; i++ {
			id := uint64(th.TID())*1000 + uint64(i)
			q.Insert(th, queue.MakePayload(id, 48))
		}
	})
	return tr, func(im *memory.Image) error {
		_, err := queue.Recover(im, meta)
		return err
	}
}

func TestAllPoliciesRecoverUnderTheirModel(t *testing.T) {
	for _, d := range []queue.Design{queue.CWL, queue.TwoLock} {
		for _, pol := range core.Policies {
			for _, threads := range []int{1, 3} {
				tr, rec := traceQueue(t, queue.Config{DataBytes: 1 << 13, Design: d, Policy: pol}, threads, 6, 11)
				out, err := CrashTest(tr, core.Params{Model: pol.Model()}, rec, Config{Samples: 120, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !out.AllRecovered() {
					t.Errorf("%v/%v/%dT: %v", d, pol, threads, out)
				}
				if out.Cuts < 100 {
					t.Errorf("too few cuts tested: %d", out.Cuts)
				}
			}
		}
	}
}

func TestBrokenDataHeadOrderIsCaught(t *testing.T) {
	// Dropping Algorithm 1's line-8 barrier must expose a crash state
	// where the head pointer covers unpersisted data.
	tr, rec := traceQueue(t, queue.Config{
		DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
		BreakDataHeadOrder: true,
	}, 1, 8, 3)
	corr, err := FindCorruption(tr, core.Params{Model: core.Epoch}, rec, Config{Samples: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if corr == nil {
		t.Fatal("removing the data→head barrier should be catchable")
	}
	if !queue.IsCorruption(corr) {
		t.Fatalf("unexpected error type: %v", corr)
	}
}

func TestBrokenOrderHarmlessUnderStrict(t *testing.T) {
	// The same mis-annotated queue is still safe under *strict*
	// persistency: SC ordering alone protects it. This is the paper's
	// core trade-off in executable form.
	tr, rec := traceQueue(t, queue.Config{
		DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
		BreakDataHeadOrder: true,
	}, 1, 8, 3)
	out, err := CrashTest(tr, core.Params{Model: core.Strict}, rec, Config{Samples: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllRecovered() {
		t.Fatalf("strict persistency should tolerate missing barriers: %v", out)
	}
}

func TestStrictAnnotationsUnsafeUnderEpoch(t *testing.T) {
	// Running the unannotated (strict-policy) queue under epoch
	// persistency must be unsafe: relaxation requires annotation.
	tr, rec := traceQueue(t, queue.Config{
		DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyStrict,
	}, 1, 8, 5)
	corr, err := FindCorruption(tr, core.Params{Model: core.Epoch}, rec, Config{Samples: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if corr == nil {
		t.Fatal("epoch persistency without barriers should corrupt")
	}
}

func TestTwoLockCompletionBarrierIsLoadBearing(t *testing.T) {
	// Algorithm 1 as printed has no barrier between a 2LC entry copy and
	// its insert-list completion; this reproduction adds one (see
	// queue.Config.OmitCompletionBarrier). Verify it is load-bearing:
	// without it, a multi-threaded run reaches a corrupt crash state.
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		tr, rec := traceQueue(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.TwoLock, Policy: core.PolicyEpoch,
			OmitCompletionBarrier: true,
		}, 3, 6, seed)
		corr, err := FindCorruption(tr, core.Params{Model: core.Epoch}, rec, Config{Samples: 600, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		found = corr != nil
	}
	if !found {
		t.Fatal("omitting the 2LC completion barrier should be catchable")
	}
}

func TestExhaustiveSmallQueue(t *testing.T) {
	tr, rec := traceQueue(t, queue.Config{DataBytes: 1 << 12, Design: queue.CWL, Policy: core.PolicyEpoch}, 1, 2, 1)
	out, err := Exhaustive(tr, core.Params{Model: core.Epoch}, rec, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllRecovered() {
		t.Fatalf("exhaustive: %v", out)
	}
	if out.Cuts < 4 {
		t.Fatalf("suspiciously few cuts: %d", out.Cuts)
	}
}

func TestExhaustiveRefusesLargeGraphs(t *testing.T) {
	tr, rec := traceQueue(t, queue.Config{DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch}, 1, 10, 1)
	if _, err := Exhaustive(tr, core.Params{Model: core.Epoch}, rec, 10); err == nil {
		t.Fatal("exhaustive should refuse large graphs")
	}
}

func TestInsertRemoveCrashSafety(t *testing.T) {
	// Interleaved producers and a consumer: any crash state must still
	// recover cleanly (a lost tail persist re-delivers an entry — at
	// least once — but never corrupts).
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 3, Seed: 21, Sink: tr})
	s := m.SetupThread()
	q, err := queue.New(s, queue.Config{DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch})
	if err != nil {
		t.Fatal(err)
	}
	meta := q.Meta()
	m.Run(func(th *exec.Thread) {
		if th.TID() == 2 {
			for i := 0; i < 12; i++ {
				q.Remove(th) // may be empty; that's fine
			}
			return
		}
		for i := 0; i < 8; i++ {
			q.Insert(th, queue.MakePayload(uint64(th.TID())*1000+uint64(i), 48))
		}
	})
	rec := func(im *memory.Image) error {
		_, err := queue.Recover(im, meta)
		return err
	}
	out, err := CrashTest(tr, core.Params{Model: core.Epoch}, rec, Config{Samples: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllRecovered() {
		t.Fatalf("insert/remove crash safety: %v", out)
	}
}

func TestStrandInsertRemoveCrashSafety(t *testing.T) {
	// Strand persistency with buffer reuse: inserts overwrite slots
	// freed by removes, so the entry and head persists must be ordered
	// after the tail persist (§5.3's read-then-barrier recipe in
	// queue.strandOrderingRead). A small buffer forces reuse.
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 2, Seed: 31, Sink: tr})
	s := m.SetupThread()
	q, err := queue.New(s, queue.Config{DataBytes: 512, Design: queue.CWL, Policy: core.PolicyStrand})
	if err != nil {
		t.Fatal(err)
	}
	meta := q.Meta()
	m.Run(func(th *exec.Thread) {
		for i := 0; i < 12; i++ {
			if th.TID() == 0 {
				q.Insert(th, queue.MakePayload(uint64(i), 48))
			} else {
				q.Remove(th)
			}
		}
	})
	rec := func(im *memory.Image) error {
		_, err := queue.Recover(im, meta)
		return err
	}
	out, err := CrashTest(tr, core.Params{Model: core.Strand}, rec, Config{Samples: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllRecovered() {
		t.Fatalf("strand insert/remove: %v", out)
	}
}

func TestTwoLockUnsafeUnderEpochTSO(t *testing.T) {
	// BPFS-style conflict detection (EpochTSO) cannot see conflicts on
	// volatile addresses, so Two-Lock Concurrent's insert-list handoff
	// no longer orders a non-oldest thread's entry persists before the
	// covering head persist: a reachable corruption, and exactly the
	// kind of gap the paper's §5.2 discussion of BPFS warns about.
	found := false
	for seed := int64(0); seed < 12 && !found; seed++ {
		tr, rec := traceQueue(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.TwoLock, Policy: core.PolicyEpoch,
		}, 3, 6, seed)
		corr, err := FindCorruption(tr, core.Params{Model: core.EpochTSO}, rec, Config{Samples: 600, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		found = corr != nil
	}
	if !found {
		t.Fatal("2LC under TSO-style conflict detection should reach corruption")
	}
	// CWL is safe even under EpochTSO: each entry's head persist is
	// issued by the inserting thread itself, so only thread-local
	// barriers and strong persist atomicity — both still enforced —
	// protect recovery.
	tr, rec := traceQueue(t, queue.Config{DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch}, 3, 6, 4)
	out, err := CrashTest(tr, core.Params{Model: core.EpochTSO}, rec, Config{Samples: 400, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !out.AllRecovered() {
		t.Fatalf("CWL under EpochTSO should stay safe: %v", out)
	}
}

func TestFullCutMatchesMachineImage(t *testing.T) {
	// Materializing the full cut of the persist DAG must reproduce the
	// machine's final persistent image exactly — the DAG captures every
	// persist with its value.
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 2, Seed: 13, Sink: tr})
	s := m.SetupThread()
	q, err := queue.New(s, queue.Config{DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(func(th *exec.Thread) {
		for i := 0; i < 5; i++ {
			q.Insert(th, queue.MakePayload(uint64(th.TID()*100+i), 72))
		}
	})
	g, err := graph.Build(tr, core.Params{Model: core.Epoch})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Materialize(g.Full()).Equal(m.PersistentImage()) {
		t.Fatal("full-cut image differs from the machine's persistent memory")
	}
}

func TestOutcomeString(t *testing.T) {
	o := Outcome{Model: core.Epoch, Persists: 3, Cuts: 10, Recovered: 10}
	if o.String() == "" || !o.AllRecovered() {
		t.Fatal("outcome formatting")
	}
	o.Corrupt = 1
	o.FirstCorruption = &queue.CorruptionError{Offset: 1, Reason: "x"}
	if o.AllRecovered() {
		t.Fatal("AllRecovered with corrupt > 0")
	}
	if o.String() == "" {
		t.Fatal("corrupt outcome formatting")
	}
}
