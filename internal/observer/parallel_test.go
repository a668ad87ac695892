package observer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/queue"
	"repro/internal/sweep"
)

// The campaign-level determinism contract: equal seeds must yield
// identical outcomes — tallies, progress sequence, first failure, and
// minimized repro — at any worker count.

func TestCampaignParallelMatchesSequential(t *testing.T) {
	run := func(parallel int) (CampaignOutcome, []string) {
		tr, rec := traceQueueChecked(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch, MaxThreads: 2,
		}, 2, 6, 11)
		var progress []string
		// 350 scenarios: progress fires at 100, 200 and 300 and after
		// the last scenario.
		out, err := Campaign(buildGraph(t, tr, core.Epoch), rec, CampaignConfig{
			Scenarios: 350, Seed: 7,
			Progress: func(o CampaignOutcome) {
				progress = append(progress, o.String())
			},
			Sweep: sweep.Config{Parallel: parallel},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, progress
	}
	seq, seqProg := run(1)
	par, parProg := run(8)
	if seq.String() != par.String() {
		t.Fatalf("-parallel 8 campaign differs from sequential:\n%s\n%s", par.String(), seq.String())
	}
	if fmt.Sprint(seqProg) != fmt.Sprint(parProg) {
		t.Fatalf("progress sequences differ:\nseq: %v\npar: %v", seqProg, parProg)
	}
	if len(seqProg) != 4 {
		t.Fatalf("progress fired %d times, want 4", len(seqProg))
	}
	if !strings.Contains(seqProg[3], " 350 scenarios") {
		t.Fatalf("last progress call is not the final outcome: %s", seqProg[3])
	}
}

func TestCampaignFailureReproParallelMatchesSequential(t *testing.T) {
	run := func(parallel int) CampaignOutcome {
		tr, rec := traceQueueChecked(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
			BreakDataHeadOrder: true,
		}, 1, 8, 5)
		out, err := Campaign(buildGraph(t, tr, core.Epoch), rec, CampaignConfig{
			Scenarios: 400, Seed: 2,
			Sweep: sweep.Config{Parallel: parallel},
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.FirstFailure == nil {
			t.Fatal("broken barrier not found")
		}
		return out
	}
	seq, par := run(1), run(8)
	if seq.FirstFailureClass != par.FirstFailureClass {
		t.Fatalf("first-failure class differs: %v vs %v", seq.FirstFailureClass, par.FirstFailureClass)
	}
	// The minimized repro string is the strongest determinism check: it
	// encodes the exact cut and plan the minimizer converged to.
	if sr, pr := seq.FirstFailure.Repro(), par.FirstFailure.Repro(); sr != pr {
		t.Fatalf("minimized repros differ:\nseq: %s\npar: %s", sr, pr)
	}
	if seq.String() != par.String() {
		t.Fatalf("outcomes differ:\n%s\n%s", seq.String(), par.String())
	}
}

// TestCrashTestParallelMatchesSequential runs both cut sources on a
// clean and a broken queue: outcomes, first corruption included, must
// not depend on the worker count.
func TestCrashTestParallelMatchesSequential(t *testing.T) {
	for _, broken := range []bool{false, true} {
		tr, rec := traceQueue(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
			BreakDataHeadOrder: broken,
		}, 1, 8, 3)
		g := buildGraph(t, tr, core.Epoch)
		for _, tc := range []struct {
			src  CutSource
			cuts int
		}{
			{Sampled{Samples: 200, Seed: 9}, 202},
			{SingleVictim{}, g.Len() + 2},
		} {
			run := func(parallel int) Outcome {
				out, err := CrashTest(g, tc.src, rec, sweep.Config{Parallel: parallel})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			seq, par := run(1), run(8)
			if seq.String() != par.String() {
				t.Fatalf("%T broken=%v: -parallel 8 crash test differs from sequential:\n%s\n%s", tc.src, broken, par.String(), seq.String())
			}
			if seq.Cuts != tc.cuts {
				t.Fatalf("%T: tested %d cuts, want %d", tc.src, seq.Cuts, tc.cuts)
			}
			if broken && seq.AllRecovered() {
				t.Fatalf("%T: broken queue recovered from every cut", tc.src)
			}
		}
	}
}
