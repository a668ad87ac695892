package observer

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
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
		out, err := Campaign(tr, core.Params{Model: core.Epoch}, rec, CampaignConfig{
			Scenarios: 300, Seed: 7,
			ProgressEvery: 50,
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
	if len(seqProg) != 300/50 {
		t.Fatalf("progress fired %d times, want %d", len(seqProg), 300/50)
	}
}

func TestCampaignFailureReproParallelMatchesSequential(t *testing.T) {
	run := func(parallel int) CampaignOutcome {
		tr, rec := traceQueueChecked(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
			BreakDataHeadOrder: true,
		}, 1, 8, 5)
		out, err := Campaign(tr, core.Params{Model: core.Epoch}, rec, CampaignConfig{
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

func TestCrashTestParallelMatchesSequential(t *testing.T) {
	run := func(parallel int) Outcome {
		tr, checked := traceQueueChecked(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
		}, 1, 8, 3)
		out, err := CrashTest(tr, core.Params{Model: core.Epoch}, func(im *memory.Image) error {
			_, e := checked(im)
			return e
		}, Config{Samples: 200, Seed: 9, Sweep: sweep.Config{Parallel: parallel}})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq, par := run(1), run(8)
	if seq.String() != par.String() {
		t.Fatalf("-parallel 8 crash test differs from sequential:\n%s\n%s", par.String(), seq.String())
	}
	if seq.Cuts != 202 {
		t.Fatalf("tested %d cuts, want 202", seq.Cuts)
	}
}
