package observer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/queue"
)

func TestAdversarialCleanOnCorrectQueue(t *testing.T) {
	for _, pol := range core.Policies {
		tr, rec := traceQueue(t, queue.Config{DataBytes: 1 << 13, Design: queue.CWL, Policy: pol}, 2, 5, 7)
		out, err := Adversarial(tr, core.Params{Model: pol.Model()}, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllRecovered() {
			t.Errorf("%v: %v", pol, out)
		}
		if out.Cuts != out.Persists+2 {
			t.Errorf("cut count %d for %d persists", out.Cuts, out.Persists)
		}
	}
}

func TestAdversarialFindsBrokenBarrierDeterministically(t *testing.T) {
	// Random sampling can miss narrow hazards; the adversarial sweep
	// cannot miss a single-persist ordering violation. The data→head
	// break must be caught on the FIRST seed.
	tr, rec := traceQueue(t, queue.Config{
		DataBytes: 1 << 13, Design: queue.CWL, Policy: core.PolicyEpoch,
		BreakDataHeadOrder: true,
	}, 1, 4, 0)
	out, err := Adversarial(tr, core.Params{Model: core.Epoch}, rec)
	if err != nil {
		t.Fatal(err)
	}
	if out.AllRecovered() {
		t.Fatal("adversarial sweep missed the broken barrier")
	}
	if !queue.IsCorruption(out.FirstCorruption) {
		t.Fatalf("unexpected corruption type: %v", out.FirstCorruption)
	}
}

func TestAdversarialFindsCompletionBarrierHazard(t *testing.T) {
	// The 2LC completion-barrier hazard needs a non-oldest insert; the
	// sweep finds it across a handful of seeds without tuning sample
	// counts.
	found := false
	for seed := int64(0); seed < 6 && !found; seed++ {
		tr, rec := traceQueue(t, queue.Config{
			DataBytes: 1 << 13, Design: queue.TwoLock, Policy: core.PolicyEpoch,
			OmitCompletionBarrier: true,
		}, 3, 4, seed)
		out, err := Adversarial(tr, core.Params{Model: core.Epoch}, rec)
		if err != nil {
			t.Fatal(err)
		}
		found = !out.AllRecovered()
	}
	if !found {
		t.Fatal("adversarial sweep missed the completion-barrier hazard")
	}
}
