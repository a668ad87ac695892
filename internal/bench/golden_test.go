package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/queue"
)

// TestGoldenCriticalPaths pins exact simulation outputs for a fixed
// seed: any drift in the scheduler, the queue implementations, or the
// persistency models shows up here as a hard diff, not a silent
// methodology change. The numbers are the observed outputs at the time
// the test was written — they are a regression fence, not a claim from
// the paper. Update them deliberately (with a CHANGES.md note) when a
// semantic change is intended.
func TestGoldenCriticalPaths(t *testing.T) {
	cases := []struct {
		design    queue.Design
		model     core.Model
		policy    core.Policy
		path      int64
		placed    int64
		coalesced int64
	}{
		{queue.CWL, core.Strict, core.PolicyStrict, 32002, 32002, 0},
		{queue.CWL, core.Epoch, core.PolicyEpoch, 4001, 32002, 0},
		{queue.CWL, core.Strand, core.PolicyStrand, 3, 30003, 1999},
		{queue.TwoLock, core.Strict, core.PolicyStrict, 13734, 31215, 406},
		{queue.TwoLock, core.Epoch, core.PolicyEpoch, 553, 30553, 1050},
		{queue.TwoLock, core.Strand, core.PolicyStrand, 3, 30003, 1533},
	}
	for _, c := range cases {
		w := Workload{
			Design: c.design, Policy: c.policy,
			Threads: 4, Inserts: 2000, PayloadLen: 100, Seed: 42,
		}
		r, err := Simulate(w, core.Params{Model: c.model})
		if err != nil {
			t.Fatalf("%v/%v: %v", c.design, c.model, err)
		}
		if r.CriticalPath != c.path || r.Placed != c.placed || r.Coalesced != c.coalesced {
			t.Errorf("%v/%v: (path, placed, coalesced) = (%d, %d, %d), golden (%d, %d, %d)",
				c.design, c.model, r.CriticalPath, r.Placed, r.Coalesced,
				c.path, c.placed, c.coalesced)
		}
	}
}
