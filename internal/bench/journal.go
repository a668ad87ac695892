package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/journal"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Journal workload harness: the same persist-concurrency evaluation as
// Table 1, applied to the redo-journaled metadata store — the paper's
// journaled-file-system motivation (§6, §9).

// JournalWorkload describes one journal benchmark configuration.
type JournalWorkload struct {
	// Policy selects the annotation discipline.
	Policy journal.Policy
	// Threads is the simulated thread count.
	Threads int
	// Txns is the total transaction count.
	Txns int
	// BlocksPerTxn is the transaction write set size.
	BlocksPerTxn int
	// JournalBytes sizes the redo ring; 0 auto-sizes to avoid wraps.
	JournalBytes uint64
	// Seed drives interleavings.
	Seed int64
}

func (w *JournalWorkload) normalize() {
	if w.Threads <= 0 {
		w.Threads = 1
	}
	if w.Txns <= 0 {
		w.Txns = 1000
	}
	if w.BlocksPerTxn <= 0 {
		w.BlocksPerTxn = 2
	}
	if w.JournalBytes == 0 {
		per := uint64(w.BlocksPerTxn+1) * 128
		w.JournalBytes = uint64(w.Txns+w.Threads+2) * per
		if rem := w.JournalBytes % 64; rem != 0 {
			w.JournalBytes += 64 - rem
		}
	}
}

// RunJournal executes the workload, streaming events into sink. Each
// thread owns a disjoint block group, so transactions conflict only on
// the journal structures — the interesting part.
func RunJournal(w JournalWorkload, sink trace.Sink) error {
	w.normalize()
	m := exec.NewMachine(exec.Config{Threads: w.Threads, Seed: w.Seed, Sink: sink})
	s := m.SetupThread()
	st, err := journal.New(s, journal.Config{
		Blocks:       w.Threads * w.BlocksPerTxn,
		JournalBytes: w.JournalBytes,
		Policy:       w.Policy,
	})
	if err != nil {
		return err
	}
	per := w.Txns / w.Threads
	extra := w.Txns % w.Threads
	m.Run(func(t *exec.Thread) {
		n := per
		if t.TID() < extra {
			n++
		}
		base := t.TID() * w.BlocksPerTxn
		for i := 0; i < n; i++ {
			id := uint64(t.TID())<<32 | uint64(i)
			t.BeginWork(id)
			writes := make([]journal.Write, w.BlocksPerTxn)
			for b := 0; b < w.BlocksPerTxn; b++ {
				writes[b] = journal.Write{Block: base + b, Data: journal.MakeBlock(id + 1)}
			}
			st.Update(t, writes)
			t.EndWork(id)
		}
	})
	return nil
}

// JournalRow is one row of the journal persist-concurrency table.
type JournalRow struct {
	Policy       journal.Policy
	Threads      int
	Result       core.Result
	PathPerTxn   float64
	CriticalPath int64
}

// JournalModelFor maps journal policies to their target models.
func JournalModelFor(p journal.Policy) core.Model {
	switch p {
	case journal.PolicyStrict:
		return core.Strict
	case journal.PolicyStrand:
		return core.Strand
	default:
		return core.Epoch
	}
}

// JournalTable evaluates persist concurrency of the journal under
// every policy and the given thread counts, fanning the (threads ×
// policy) grid across sw workers.
func JournalTable(txns int, threads []int, seed int64, sw sweep.Config) ([]JournalRow, error) {
	if len(threads) == 0 {
		threads = []int{1, 4}
	}
	type cell struct {
		threads int
		policy  journal.Policy
	}
	var grid []cell
	for _, th := range threads {
		for _, pol := range journal.Policies {
			if pol == journal.PolicyRacingEpoch {
				continue // unsafe for this structure; excluded from the table
			}
			grid = append(grid, cell{th, pol})
		}
	}
	rows := make([]JournalRow, 0, len(grid))
	err := sweep.Run(len(grid), sw.Named("journal"),
		func(i int) (JournalRow, error) {
			c := grid[i]
			w := JournalWorkload{Policy: c.policy, Threads: c.threads, Txns: txns, Seed: seed}
			r, err := streamSim(core.Params{Model: JournalModelFor(c.policy)}, func(s trace.Sink) error { return RunJournal(w, s) })
			if err != nil {
				return JournalRow{}, fmt.Errorf("bench: journal %v/%dT: %w", c.policy, c.threads, err)
			}
			return JournalRow{
				Policy: c.policy, Threads: c.threads, Result: r,
				PathPerTxn:   r.PathPerWork(),
				CriticalPath: r.CriticalPath,
			}, nil
		},
		func(_ int, r JournalRow) error {
			rows = append(rows, r)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderJournal formats the journal table.
func RenderJournal(rows []JournalRow) *stats.Table {
	t := stats.NewTable("policy", "threads", "critical-path", "path/txn", "coalesced")
	for _, r := range rows {
		t.AddRow(
			r.Policy.String(), fmt.Sprint(r.Threads),
			fmt.Sprint(r.CriticalPath),
			fmt.Sprintf("%.2f", r.PathPerTxn),
			fmt.Sprint(r.Result.Coalesced),
		)
	}
	return t
}
