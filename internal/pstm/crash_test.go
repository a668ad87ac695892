package pstm

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/trace"
)

// tracePSTM runs paired-word transactions and returns the trace plus a
// recovery-and-invariant checker: both words of each pair must always
// carry the same value after recovery (transaction atomicity).
func tracePSTM(t *testing.T, pol core.Policy, threads, txns int, seed int64) (*trace.Trace, observer.RecoverFunc) {
	t.Helper()
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: threads, Seed: seed, Sink: tr})
	s := m.SetupThread()
	h, err := New(s, Config{Words: 2 * threads, UndoCap: 8, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	meta := h.Meta()
	m.Run(func(th *exec.Thread) {
		for i := 0; i < txns; i++ {
			h.Atomic(th, func(tx *Tx) {
				v := uint64(th.TID()*1000 + i + 1)
				tx.Store(th.TID()*2, v)
				tx.Store(th.TID()*2+1, v)
			})
		}
	})
	return tr, func(im *memory.Image) error {
		state, err := Recover(im, meta)
		if err != nil {
			return err
		}
		for g := 0; g < threads; g++ {
			if state.Words[2*g] != state.Words[2*g+1] {
				return fmt.Errorf("pair %d torn: %d vs %d", g, state.Words[2*g], state.Words[2*g+1])
			}
		}
		return nil
	}
}

func TestCrashSafetyUnderTargetModels(t *testing.T) {
	for _, pol := range []core.Policy{core.PolicyStrict, core.PolicyEpoch, core.PolicyStrand} {
		for _, threads := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/%dT", pol, threads), func(t *testing.T) {
				tr, rec := tracePSTM(t, pol, threads, 5, 17)
				out, err := observer.Adversarial(tr, core.Params{Model: pol.Model()}, rec)
				if err != nil {
					t.Fatal(err)
				}
				if !out.AllRecovered() {
					t.Fatalf("%v", out)
				}
				// Random sampling too, for cut shapes the sweep misses.
				out, err = observer.CrashTest(tr, core.Params{Model: pol.Model()}, rec, observer.Config{Samples: 150, Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				if !out.AllRecovered() {
					t.Fatalf("sampled: %v", out)
				}
			})
		}
	}
}

func TestRacingEpochsUnsafeForPSTM(t *testing.T) {
	// Undo-record slots are reused across transactions; ordering the
	// reuse after the previous seal requires the barriers around the
	// lock, so the racing discipline corrupts.
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		tr, rec := tracePSTM(t, core.PolicyRacingEpoch, 3, 5, seed)
		out, err := observer.Adversarial(tr, core.Params{Model: core.Epoch}, rec)
		if err != nil {
			t.Fatal(err)
		}
		found = !out.AllRecovered()
		if !found {
			corr, err := observer.FindCorruption(tr, core.Params{Model: core.Epoch}, rec, observer.Config{Samples: 400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			found = corr != nil
		}
	}
	if !found {
		t.Fatal("racing-epoch pstm should reach a torn state")
	}
}

func TestBrokenUndoOrderCaught(t *testing.T) {
	// Simulating Mnemosyne-style bugs: if the undo record is not
	// ordered before the in-place update, a crash tears the pair. We
	// emulate the missing barrier by running the epoch-annotated heap
	// under the EpochTSO model with multi-thread volatile-lock handoff
	// removed from conflict tracking — the cross-transaction ordering
	// evaporates.
	found := false
	for seed := int64(0); seed < 10 && !found; seed++ {
		tr, rec := tracePSTM(t, core.PolicyEpoch, 3, 5, seed)
		out, err := observer.Adversarial(tr, core.Params{Model: core.EpochTSO}, rec)
		if err != nil {
			t.Fatal(err)
		}
		found = !out.AllRecovered()
	}
	if !found {
		t.Skip("EpochTSO did not tear this workload on the tried seeds")
	}
}
