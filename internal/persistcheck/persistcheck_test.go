// Cross-validation tests: the static checker's verdicts on the shipped
// workloads, checked against the recovery observer in both directions.
// Correctly annotated structures must report zero hazards under their
// target models; every seeded bug fixture must be flagged; and the
// racing-epochs verdicts must match what crash sampling finds (safe for
// the queue, unsafe for the journal and PSTM — the paper's point that
// relaxed annotation correctness is per-algorithm).
package persistcheck_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/observer"
	"repro/internal/persistcheck"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// opt builds workload options from flag spellings with the policy's
// natural model, mirroring the cmd/persistcheck defaults.
func opt(t *testing.T, wl, design, policy string, threads, inserts int, seed int64) workload.Options {
	t.Helper()
	d, err := workload.ParseDesign(design)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ParsePolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Options{
		Workload: wl, Design: d, Policy: p,
		Model:   p.Model(),
		Threads: threads, Inserts: inserts, Payload: 64, Seed: seed,
		DesignStr: design, PolicyStr: policy,
	}
}

func check(t *testing.T, o workload.Options) (*workload.Run, *persistcheck.Report) {
	t.Helper()
	run, err := workload.Build(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := persistcheck.Check(run.Trace, core.Params{Model: o.Model}, run.Checks, persistcheck.Config{
		ReproParams: o.Params(),
		SiteLabel:   run.SiteLabel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run, rep
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

func TestCorrectWorkloadsReportNoHazards(t *testing.T) {
	// Every shipped structure under every (policy, target model) pair it
	// supports must come back clean — the checker's false-positive
	// contract, matching the observer's all-recovered verdicts.
	for _, wl := range []string{"queue", "journal", "pstm"} {
		designs := []string{"cwl"}
		if wl == "queue" {
			designs = []string{"cwl", "2lc"}
		}
		for _, design := range designs {
			for _, policy := range []string{"strict", "epoch", "strand"} {
				name := fmt.Sprintf("%s/%s/%s", wl, design, policy)
				t.Run(name, func(t *testing.T) {
					_, rep := check(t, opt(t, wl, design, policy, 2, 16, 1))
					if rep.Hazards() != 0 {
						t.Fatalf("correct %s flagged:\n%s", name, rep)
					}
				})
			}
		}
	}
}

func TestCWLEpochCleanUnderEpochTSO(t *testing.T) {
	// CWL's epoch annotations publish only same-thread data, so TSO
	// program order alone carries the data→head ordering: clean under
	// epoch-TSO too (the observer agrees; contrast 2LC, whose head
	// publication is cross-thread and genuinely unsafe without
	// volatile-conflict propagation).
	o := opt(t, "queue", "cwl", "epoch", 2, 16, 1)
	o.Model = core.EpochTSO
	_, rep := check(t, o)
	if rep.Hazards() != 0 {
		t.Fatalf("cwl/epoch under epoch-tso flagged:\n%s", rep)
	}
}

func TestTwoLockEpochHazardousUnderEpochTSO(t *testing.T) {
	// Epoch-TSO drops volatile-conflict propagation, so the cross-thread
	// ordering 2LC's lock handoff relies on vanishes. The checker must
	// flag it, and the observer confirms the hazard is real (reachable
	// corrupt crash states), so this is a true positive, not noise.
	o := opt(t, "queue", "2lc", "epoch", 2, 16, 1)
	o.Model = core.EpochTSO
	run, rep := check(t, o)
	if rep.Hazards() == 0 {
		t.Fatalf("2lc/epoch under epoch-tso not flagged:\n%s", rep)
	}
	corr := crashTest(t, run.Trace, core.EpochTSO, observer.Sampled{Samples: 600, Seed: 1}, run.Recover).FirstCorruption
	if corr == nil {
		t.Fatal("observer found no corruption for 2lc/epoch under epoch-tso")
	}
}

func TestCheckerFlagsSeededBugs(t *testing.T) {
	// Each seeded bug fixture removes one load-bearing annotation; the
	// checker must flag all of them with the expected analysis kind.
	cases := []struct {
		name string
		base func(t *testing.T) workload.Options
		mut  func(*workload.Options)
		kind persistcheck.Kind
	}{
		{"queue-cwl-epoch/break-barrier",
			func(t *testing.T) workload.Options { return opt(t, "queue", "cwl", "epoch", 2, 16, 1) },
			func(o *workload.Options) { o.BreakBar = true },
			persistcheck.UnpersistedPublication},
		{"queue-2lc-epoch/break-barrier",
			func(t *testing.T) workload.Options { return opt(t, "queue", "2lc", "epoch", 2, 16, 1) },
			func(o *workload.Options) { o.BreakBar = true },
			persistcheck.UnpersistedPublication},
		{"journal-epoch/break-commit",
			func(t *testing.T) workload.Options { return opt(t, "journal", "cwl", "epoch", 2, 16, 1) },
			func(o *workload.Options) { o.BreakCommit = true },
			persistcheck.UnpersistedPublication},
		{"journal-strand/omit-strand-recipe",
			func(t *testing.T) workload.Options { return opt(t, "journal", "cwl", "strand", 2, 16, 1) },
			func(o *workload.Options) { o.OmitRecipe = true },
			persistcheck.UnboundRead},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.base(t)
			c.mut(&o)
			_, rep := check(t, o)
			if rep.Hazards() == 0 {
				t.Fatalf("seeded bug not flagged:\n%s", rep)
			}
			if rep.Counts[c.kind] == 0 {
				t.Fatalf("expected %s findings, got:\n%s", c.kind, rep)
			}
			for _, f := range rep.Findings {
				if f.Severity == persistcheck.Hazard && f.Repro == "" {
					t.Fatalf("hazard finding without repro: %s", f)
				}
			}
		})
	}
}

func TestCompletionBarrierFixtureAcrossSeeds(t *testing.T) {
	// 2LC's completion barrier only matters when a non-oldest insert
	// completes first, so whether the omit-completion-barrier fixture's
	// hazard appears in a trace depends on the schedule. Scanning seeds
	// must find it (same protocol as the observer's load-bearing test),
	// while the correct implementation stays clean on every seed.
	flagged := 0
	for seed := int64(0); seed < 6; seed++ {
		o := opt(t, "queue", "2lc", "epoch", 3, 12, seed)
		o.OmitComp = true
		_, rep := check(t, o)
		if rep.Hazards() > 0 {
			flagged++
		}
		good := opt(t, "queue", "2lc", "epoch", 3, 12, seed)
		if _, rep := check(t, good); rep.Hazards() != 0 {
			t.Fatalf("correct 2lc flagged at seed %d:\n%s", seed, rep)
		}
	}
	if flagged == 0 {
		t.Fatal("omit-completion-barrier fixture never flagged across seeds 0..5")
	}
}

func TestRacingVerdictsMatchObserver(t *testing.T) {
	// Racing epochs (no barriers around the lock) are safe for the queue
	// but unsafe for the journal and PSTM. The checker's verdict must
	// match crash sampling on the same trace, in both directions.
	cases := []struct {
		name   string
		wl     string
		design string
		unsafe bool
	}{
		{"queue-cwl", "queue", "cwl", false},
		{"queue-2lc", "queue", "2lc", false},
		{"journal", "journal", "cwl", true},
		{"pstm", "pstm", "cwl", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := opt(t, c.wl, c.design, "racing", 2, 16, 1)
			run, rep := check(t, o)
			corr := crashTest(t, run.Trace, o.Model, observer.Sampled{Samples: 600, Seed: 1}, run.Recover).FirstCorruption
			if c.unsafe {
				if rep.Hazards() == 0 {
					t.Fatalf("racing %s not flagged:\n%s", c.name, rep)
				}
				if corr == nil {
					t.Fatalf("observer found no corruption for racing %s", c.name)
				}
			} else {
				if rep.Hazards() != 0 {
					t.Fatalf("racing %s flagged but observer-safe:\n%s", c.name, rep)
				}
				if corr != nil {
					t.Fatalf("observer found corruption for racing %s: %v", c.name, corr)
				}
			}
		})
	}
}

func TestHazardCutsAreSCDivergent(t *testing.T) {
	// Every hazard's cut must be a crash state the model admits (a valid
	// downward-closed cut) that no SC prefix matches: it includes the
	// later witness persist while excluding the earlier one. Materialized,
	// the image misses the earlier persist's value — the recovery-visible
	// divergence.
	o := opt(t, "queue", "cwl", "epoch", 2, 16, 1)
	o.BreakBar = true
	run, rep := check(t, o)
	if rep.Hazards() == 0 {
		t.Fatal("fixture not flagged")
	}
	g, err := graph.Build(run.Trace, core.Params{Model: o.Model})
	if err != nil {
		t.Fatal(err)
	}
	validated := 0
	for _, f := range rep.Findings {
		if f.Severity != persistcheck.Hazard {
			continue
		}
		if f.WitnessA < 0 || f.WitnessB < 0 {
			t.Fatalf("hazard without witness pair: %s", f)
		}
		if len(f.Cut.Included) != g.Len() {
			t.Fatalf("cut over %d nodes, graph has %d", len(f.Cut.Included), g.Len())
		}
		if !g.Valid(f.Cut) {
			t.Fatalf("divergent cut not downward-closed: %s", f)
		}
		if !f.Cut.Included[f.WitnessB] || f.Cut.Included[f.WitnessA] {
			t.Fatalf("cut does not separate the witness pair: %s", f)
		}
		ae, be := g.Nodes[f.WitnessA].Event, g.Nodes[f.WitnessB].Event
		if ae.Seq >= be.Seq {
			t.Fatalf("witness pair not SC-ordered: #%d vs #%d", ae.Seq, be.Seq)
		}
		// The materialized state must miss A's persist: no SC prefix
		// containing B (and hence A) looks like this.
		if ae.Size == 8 && ae.Addr%8 == 0 && ae.Val != 0 {
			if got := g.Materialize(f.Cut).ReadWord(ae.Addr); got == ae.Val {
				t.Fatalf("materialized cut contains excluded persist %#x=%#x", uint64(ae.Addr), ae.Val)
			}
			validated++
		}
	}
	if validated == 0 {
		t.Fatal("no witness pair was image-validated")
	}
}

func TestReproRoundTrip(t *testing.T) {
	// A hazard's repro line must rebuild the identical workload options
	// and trace through the fault-campaign replay path (what `crashsim
	// -replay` does), and its cut must be valid for the rebuilt graph.
	o := opt(t, "journal", "cwl", "epoch", 2, 16, 1)
	o.BreakCommit = true
	run, rep := check(t, o)
	if len(rep.Findings) == 0 || rep.Findings[0].Repro == "" {
		t.Fatalf("no repro to round-trip:\n%s", rep)
	}
	s, err := fault.ParseRepro(rep.Findings[0].Repro)
	if err != nil {
		t.Fatal(err)
	}
	if s.Plan.Len() != 0 {
		t.Fatalf("checker repro carries a fault plan: %v", s.Plan)
	}
	o2, err := workload.FromScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	if o2 != o {
		t.Fatalf("options did not round-trip:\n got %+v\nwant %+v", o2, o)
	}
	run2, err := workload.Build(o2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !run2.Trace.Equal(run.Trace) {
		t.Fatal("rebuilt trace differs from the checked trace")
	}
	g, err := graph.Build(run2.Trace, core.Params{Model: o2.Model})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cut.Included) != g.Len() || !g.Valid(s.Cut) {
		t.Fatal("repro cut invalid for the rebuilt graph")
	}
}

func TestSiteAttribution(t *testing.T) {
	// Hazards carry telemetry-convention site labels when the workload
	// provides a SiteLabel, pointing at the annotation site to fix.
	o := opt(t, "queue", "cwl", "epoch", 2, 16, 1)
	o.BreakBar = true
	_, rep := check(t, o)
	for _, f := range rep.Findings {
		if f.Kind == persistcheck.UnpersistedPublication && f.Site == "" {
			t.Fatalf("publication hazard without site label: %s", f)
		}
	}
}
