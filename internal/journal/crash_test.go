package journal

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/observer"
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
	return tr, func(im *memory.Image) error {
		state, err := Recover(im, meta)
		if err != nil {
			return err
		}
		return checkGroups(state.Table)
	}
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
				out, err := observer.CrashTest(tr, core.Params{Model: pol.Model()}, rec, observer.Config{Samples: 150, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
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
		corr, err := observer.FindCorruption(tr, core.Params{Model: core.Epoch}, rec, observer.Config{Samples: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
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
		out, err := observer.Adversarial(tr, core.Params{Model: core.Epoch}, rec)
		if err != nil {
			t.Fatal(err)
		}
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
		corr, err := observer.FindCorruption(tr, core.Params{Model: core.Epoch}, rec, observer.Config{Samples: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
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
		corr, err := observer.FindCorruption(tr, core.Params{Model: core.Strand}, rec, observer.Config{Samples: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
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
		out, err := observer.Adversarial(tr, core.Params{Model: pol.Model()}, rec)
		if err != nil {
			t.Fatal(err)
		}
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
