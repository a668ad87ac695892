package observer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/queue"
	"repro/internal/trace"
)

// The §4.1/§4.2 interaction, executable: on a relaxed-consistency (PSO)
// machine, store *visibility* can reorder across persist barriers, so
// persistency annotations alone no longer guarantee recovery — the
// programmer must add consistency fences too ("the programmer is now
// responsible for inserting the correct memory barriers", §4.1).

func tracePSOQueue(t *testing.T, fences bool, policy core.Policy, seed int64) (*trace.Trace, RecoverFunc) {
	t.Helper()
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 2, Seed: seed, Sink: tr, Consistency: exec.PSO})
	s := m.SetupThread()
	q, err := queue.New(s, queue.Config{
		DataBytes: 1 << 13, Design: queue.CWL, Policy: policy, Fences: fences,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := q.Meta()
	m.Run(func(th *exec.Thread) {
		for i := 0; i < 6; i++ {
			q.Insert(th, queue.MakePayload(uint64(th.TID())*100+uint64(i), 48))
		}
	})
	return tr, Strict(queueScan(meta))
}

func TestPSOFencedQueueRecovers(t *testing.T) {
	for _, pol := range []core.Policy{core.PolicyStrict, core.PolicyEpoch, core.PolicyStrand} {
		model := pol.Model()
		tr, rec := tracePSOQueue(t, true, pol, 5)
		out := crashTest(t, tr, model, Sampled{Samples: 300, Seed: 5}, rec)
		if !out.AllRecovered() {
			t.Errorf("PSO + fences + %v: %v", pol, out)
		}
	}
}

func TestPSOUnfencedQueueCorrupts(t *testing.T) {
	// Without fences, the head store can become visible (and persist)
	// before the entry's stores — even under strict persistency, whose
	// ordering IS the visible order. The corruption must be reachable
	// for both strict and epoch targets.
	for _, pol := range []core.Policy{core.PolicyStrict, core.PolicyEpoch} {
		model := pol.Model()
		found := false
		for seed := int64(0); seed < 15 && !found; seed++ {
			tr, rec := tracePSOQueue(t, false, pol, seed)
			corr := crashTest(t, tr, model, Sampled{Samples: 500, Seed: seed}, rec).FirstCorruption
			found = corr != nil
		}
		if !found {
			t.Errorf("PSO without fences should corrupt under %v", pol)
		}
	}
}

func TestPSOQueueRuntimeStillCorrect(t *testing.T) {
	// Even unfenced, the *runtime* queue semantics hold (the engine's
	// drain-on-overlap and lock fences preserve program semantics);
	// only crash states are endangered. The full-run image recovers.
	tr, rec := tracePSOQueue(t, false, core.PolicyEpoch, 3)
	g := buildGraph(t, tr, core.Epoch)
	if g.Len() == 0 {
		t.Fatal("no persists traced")
	}
	if err := rec(g.Materialize(g.Full())); err != nil {
		t.Fatalf("full-run image does not recover: %v", err)
	}
}
