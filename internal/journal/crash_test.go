package journal

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// traceJournal runs a multi-group transaction workload and returns the
// trace plus a recovery-and-invariant checker.
func traceJournal(t *testing.T, cfg Config, threads, txnsPerThread int, seed int64) (*trace.Trace, observer.RecoverFunc) {
	t.Helper()
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: threads, Seed: seed, Sink: tr})
	s := m.SetupThread()
	st, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := st.Meta()
	m.Run(func(th *exec.Thread) {
		for i := 0; i < txnsPerThread; i++ {
			g := th.TID()
			st.Update(th, groupWrites(g, uint64(th.TID()*1000+i+1)))
		}
	})
	return tr, observer.Strict(func(im *memory.Image) (fault.RecoveryReport, error) {
		state, rep, err := Recover(im, meta)
		if err != nil {
			return rep, err
		}
		return rep, checkGroups(state.Table)
	})
}

// crashTest builds tr's persist-order graph under model and runs the
// observer over its cuts from src on the default sweep pool.
func crashTest(t *testing.T, tr *trace.Trace, model core.Model, src observer.CutSource, rec observer.RecoverFunc) observer.Outcome {
	t.Helper()
	g, err := graph.Build(tr, core.Params{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	out, err := observer.CrashTest(g, src, rec, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCrashSafetyUnderTargetModels(t *testing.T) {
	// Strict, epoch, and strand annotations must make every crash state
	// transaction-atomic under their models, including with checkpoint
	// pressure (a small ring).
	for _, pol := range []core.Policy{core.PolicyStrict, core.PolicyEpoch, core.PolicyStrand} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/%dT", pol, threads), func(t *testing.T) {
				cfg := Config{Blocks: 2 * 3, JournalBytes: 1 << 11, Policy: pol} // ring wraps
				tr, rec := traceJournal(t, cfg, threads, 6, 13)
				out := crashTest(t, tr, pol.Model(), observer.Sampled{Samples: 150, Seed: 3}, rec)
				if !out.AllRecovered() {
					t.Fatalf("%v", out)
				}
			})
		}
	}
}

func TestRacingEpochsUnsafeForJournal(t *testing.T) {
	// The journal's checkpoint truncation requires the barriers around
	// the lock; with racing-epoch annotations a crash can truncate the
	// journal while another thread's in-place applies are still
	// buffered. (Contrast with the queue, where racing epochs are safe —
	// the paper's point that relaxed annotation is per-algorithm.)
	found := false
	for seed := int64(0); seed < 12 && !found; seed++ {
		cfg := Config{Blocks: 2 * 3, JournalBytes: 1 << 11, Policy: core.PolicyRacingEpoch}
		tr, rec := traceJournal(t, cfg, 3, 6, seed)
		corr := crashTest(t, tr, core.Epoch, observer.Sampled{Samples: 500, Seed: seed}, rec).FirstCorruption
		found = corr != nil
	}
	if !found {
		t.Fatal("racing-epoch journal should reach a corrupt crash state")
	}
}

func TestRacingEpochsUnsafeAdversarially(t *testing.T) {
	// The truncation hazard under racing epochs, found deterministically
	// by the single-victim sweep rather than random sampling.
	found := false
	for seed := int64(0); seed < 6 && !found; seed++ {
		cfg := Config{Blocks: 2 * 3, JournalBytes: 1 << 11, Policy: core.PolicyRacingEpoch}
		tr, rec := traceJournal(t, cfg, 3, 6, seed)
		out := crashTest(t, tr, core.Epoch, observer.SingleVictim{}, rec)
		found = !out.AllRecovered()
	}
	if !found {
		t.Fatal("adversarial sweep missed the racing truncation hazard")
	}
}

func TestBrokenRecordCommitOrderIsLoadBearing(t *testing.T) {
	// The records→commit barrier (stage 1 → stage 2) is the journal's
	// publication ordering: with BreakRecordCommitOrder the commit can
	// persist before the redo records it covers, and recovery redoes
	// garbage. The observer must reach a corrupt state — the fixture the
	// persistency checker flags statically.
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		cfg := Config{Blocks: 2 * 3, JournalBytes: 1 << 11, Policy: core.PolicyEpoch, BreakRecordCommitOrder: true}
		tr, rec := traceJournal(t, cfg, 3, 6, seed)
		corr := crashTest(t, tr, core.Epoch, observer.Sampled{Samples: 500, Seed: seed}, rec).FirstCorruption
		found = corr != nil
	}
	if !found {
		t.Fatal("broken record→commit order never corrupted")
	}
}

func TestOmitStrandRecipeIsLoadBearing(t *testing.T) {
	// The §5.3 strand recipe (read the checkpoint, then barrier) binds a
	// new strand's record persists after the truncation they overwrite;
	// without it a crash can persist records into ring space the
	// checkpoint still covers. The observer must reach a corrupt state —
	// the fixture the checker's escape analysis flags.
	found := false
	for seed := int64(0); seed < 8 && !found; seed++ {
		cfg := Config{Blocks: 2 * 3, JournalBytes: 1 << 11, Policy: core.PolicyStrand, OmitStrandRecipe: true}
		tr, rec := traceJournal(t, cfg, 3, 6, seed)
		corr := crashTest(t, tr, core.Strand, observer.Sampled{Samples: 500, Seed: seed}, rec).FirstCorruption
		found = corr != nil
	}
	if !found {
		t.Fatal("omitted strand recipe never corrupted")
	}
}

func TestAdversarialCleanJournal(t *testing.T) {
	// The correctly annotated journal survives the deterministic sweep
	// under each target model, with checkpoint pressure.
	for _, pol := range []core.Policy{core.PolicyStrict, core.PolicyEpoch, core.PolicyStrand} {
		cfg := Config{Blocks: 2 * 3, JournalBytes: 1 << 11, Policy: pol}
		tr, rec := traceJournal(t, cfg, 3, 5, 2)
		out := crashTest(t, tr, pol.Model(), observer.SingleVictim{}, rec)
		if !out.AllRecovered() {
			t.Errorf("%v: %v", pol, out)
		}
	}
}

func TestJournalPersistConcurrency(t *testing.T) {
	// The relaxation hierarchy holds for the journal workload too.
	cp := func(pol core.Policy) int64 {
		tr, _ := traceJournal(t, Config{Blocks: 2 * 2, JournalBytes: 1 << 13, Policy: pol}, 2, 10, 4)
		r, err := core.Simulate(tr, core.Params{Model: pol.Model()})
		if err != nil {
			t.Fatal(err)
		}
		return r.CriticalPath
	}
	strict := cp(core.PolicyStrict)
	epoch := cp(core.PolicyEpoch)
	strand := cp(core.PolicyStrand)
	if !(strand <= epoch && epoch < strict) {
		t.Fatalf("hierarchy: strict %d, epoch %d, strand %d", strict, epoch, strand)
	}
}
