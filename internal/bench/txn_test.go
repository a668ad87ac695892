package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func TestRunJournalProducesWork(t *testing.T) {
	sim := core.MustNewSim(core.Params{Model: core.Epoch})
	if _, err := Run(Workload{Structure: "journal", Policy: core.PolicyEpoch, Threads: 3, Inserts: 10, Seed: 1}, sim); err != nil {
		t.Fatal(err)
	}
	r := sim.Result()
	if r.WorkItems != 10 {
		t.Fatalf("work items = %d", r.WorkItems)
	}
	if r.Persists == 0 {
		t.Fatal("no persists")
	}
}

func TestJournalTableShape(t *testing.T) {
	rows, err := TxnTable("journal", 200, []int{1, 2}, 3, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 policies × 2 thread counts (racing excluded)
		t.Fatalf("rows = %d", len(rows))
	}
	at := func(p core.Policy, th int) TxnRow {
		for _, r := range rows {
			if r.Policy == p && r.Threads == th {
				return r
			}
		}
		t.Fatalf("missing %v/%d", p, th)
		return TxnRow{}
	}
	s := at(core.PolicyStrict, 1)
	e := at(core.PolicyEpoch, 1)
	d := at(core.PolicyStrand, 1)
	// Strict serializes every persist of a transaction (~41 for
	// 2-block transactions); epoch collapses each stage (~3); strand
	// coalesces the commit word and keeps only stage ordering.
	if s.PathPerTxn < 30 || s.PathPerTxn > 55 {
		t.Errorf("strict path/txn = %.1f", s.PathPerTxn)
	}
	if e.PathPerTxn < 2 || e.PathPerTxn > 4.5 {
		t.Errorf("epoch path/txn = %.1f", e.PathPerTxn)
	}
	if !(d.Result.CriticalPath < e.Result.CriticalPath && e.Result.CriticalPath < s.Result.CriticalPath) {
		t.Errorf("hierarchy: strand %d epoch %d strict %d", d.Result.CriticalPath, e.Result.CriticalPath, s.Result.CriticalPath)
	}
	out := RenderTxn(rows).String()
	if !strings.Contains(out, "path/txn") || !strings.Contains(out, "strand") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestPSTMTableShape(t *testing.T) {
	rows, err := TxnTable("pstm", 200, []int{1}, 2, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var strict, epoch float64
	for _, r := range rows {
		switch r.Policy {
		case core.PolicyStrict:
			strict = r.PathPerTxn
		case core.PolicyEpoch:
			epoch = r.PathPerTxn
		}
	}
	// Undo logging is barrier-heavy: epoch gains only ~2× over strict
	// (each write's record must precede its in-place update), unlike
	// the redo journal's stage-batched ~14×.
	if !(epoch < strict && epoch > strict/4) {
		t.Fatalf("pstm paths: strict %.1f epoch %.1f", strict, epoch)
	}
	if RenderTxn(rows).String() == "" {
		t.Fatal("empty rendering")
	}
}

// TestJournalModelFor checks that each row of both transaction tables
// is simulated under its policy's model and that the unsafe racing
// column is left out.
func TestJournalModelFor(t *testing.T) {
	want := map[core.Policy]core.Model{
		core.PolicyStrict: core.Strict,
		core.PolicyEpoch:  core.Epoch,
		core.PolicyStrand: core.Strand,
	}
	for _, structure := range []string{"journal", "pstm"} {
		rows, err := TxnTable(structure, 16, []int{1}, 3, sweep.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", structure, len(rows), len(want))
		}
		for _, r := range rows {
			m, ok := want[r.Policy]
			if !ok {
				t.Fatalf("unexpected policy %v in %s table", r.Policy, structure)
			}
			if r.Result.Model != m {
				t.Errorf("%s: %v simulated under %v, want %v", structure, r.Policy, r.Result.Model, m)
			}
		}
	}
}

func TestRunJournalTraceValid(t *testing.T) {
	tr := &trace.Trace{}
	if _, err := Run(Workload{Structure: "journal", Policy: core.PolicyStrand, Threads: 2, Inserts: 8, Seed: 5}, tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := trace.Summarize(tr)
	if sum.Strands != 8 {
		t.Fatalf("strands = %d", sum.Strands)
	}
	if sum.WorkItems != 8 {
		t.Fatalf("work items = %d", sum.WorkItems)
	}
}

// TestTxnTableErrorNamesConfiguration checks that a failing cell's
// error names the structure, policy and thread count.
func TestTxnTableErrorNamesConfiguration(t *testing.T) {
	_, err := TxnTable("btree", 8, []int{2}, 1, sweep.Config{Parallel: 1})
	if err == nil || !strings.Contains(err.Error(), "bench: btree strict/2T: ") {
		t.Fatalf("err = %v", err)
	}
}
