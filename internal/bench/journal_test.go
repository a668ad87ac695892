package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/pstm"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func TestRunJournalProducesWork(t *testing.T) {
	sim := core.MustNewSim(core.Params{Model: core.Epoch})
	if err := RunJournal(JournalWorkload{Policy: journal.PolicyEpoch, Threads: 3, Txns: 10, Seed: 1}, sim); err != nil {
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
	rows, err := JournalTable(200, []int{1, 2}, 3, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 policies × 2 thread counts (racing excluded)
		t.Fatalf("rows = %d", len(rows))
	}
	at := func(p journal.Policy, th int) JournalRow {
		for _, r := range rows {
			if r.Policy == p && r.Threads == th {
				return r
			}
		}
		t.Fatalf("missing %v/%d", p, th)
		return JournalRow{}
	}
	s := at(journal.PolicyStrict, 1)
	e := at(journal.PolicyEpoch, 1)
	d := at(journal.PolicyStrand, 1)
	// Strict serializes every persist of a transaction (~41 for
	// 2-block transactions); epoch collapses each stage (~3); strand
	// coalesces the commit word and keeps only stage ordering.
	if s.PathPerTxn < 30 || s.PathPerTxn > 55 {
		t.Errorf("strict path/txn = %.1f", s.PathPerTxn)
	}
	if e.PathPerTxn < 2 || e.PathPerTxn > 4.5 {
		t.Errorf("epoch path/txn = %.1f", e.PathPerTxn)
	}
	if !(d.CriticalPath < e.CriticalPath && e.CriticalPath < s.CriticalPath) {
		t.Errorf("hierarchy: strand %d epoch %d strict %d", d.CriticalPath, e.CriticalPath, s.CriticalPath)
	}
	out := RenderJournal(rows).String()
	if !strings.Contains(out, "path/txn") || !strings.Contains(out, "strand") {
		t.Fatalf("rendering:\n%s", out)
	}
}

func TestPSTMTableShape(t *testing.T) {
	rows, err := PSTMTable(200, []int{1}, 2, sweep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var strict, epoch float64
	for _, r := range rows {
		switch r.Policy {
		case pstm.PolicyStrict:
			strict = r.PathPerTxn
		case pstm.PolicyEpoch:
			epoch = r.PathPerTxn
		}
	}
	// Undo logging is barrier-heavy: epoch gains only ~2× over strict
	// (each write's record must precede its in-place update), unlike
	// the redo journal's stage-batched ~14×.
	if !(epoch < strict && epoch > strict/4) {
		t.Fatalf("pstm paths: strict %.1f epoch %.1f", strict, epoch)
	}
	if RenderPSTM(rows).String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestJournalModelFor(t *testing.T) {
	if JournalModelFor(journal.PolicyStrict) != core.Strict ||
		JournalModelFor(journal.PolicyEpoch) != core.Epoch ||
		JournalModelFor(journal.PolicyRacingEpoch) != core.Epoch ||
		JournalModelFor(journal.PolicyStrand) != core.Strand {
		t.Fatal("model pairing")
	}
}

func TestRunJournalTraceValid(t *testing.T) {
	tr := &trace.Trace{}
	if err := RunJournal(JournalWorkload{Policy: journal.PolicyStrand, Threads: 2, Txns: 8, Seed: 5}, tr); err != nil {
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
