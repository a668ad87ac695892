package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/pstm"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Durable-transaction (pstm) workload harness: persist concurrency of
// undo-log transactions under each annotation discipline.

// PSTMWorkload describes one durable-transaction benchmark
// configuration: each thread runs paired-word undo-log transactions
// against its own word pair, so transactions conflict only on the
// pstm metadata.
type PSTMWorkload struct {
	// Policy selects the annotation discipline.
	Policy pstm.Policy
	// Threads is the simulated thread count.
	Threads int
	// Txns is the total transaction count.
	Txns int
	// Seed drives interleavings.
	Seed int64
}

func (w *PSTMWorkload) normalize() {
	if w.Threads <= 0 {
		w.Threads = 1
	}
	if w.Txns <= 0 {
		w.Txns = 1000
	}
}

// RunPSTM executes the workload, streaming events into sink.
func RunPSTM(w PSTMWorkload, sink trace.Sink) error {
	w.normalize()
	m := exec.NewMachine(exec.Config{Threads: w.Threads, Seed: w.Seed, Sink: sink})
	s := m.SetupThread()
	h, err := pstm.New(s, pstm.Config{Words: 2 * w.Threads, UndoCap: 8, Policy: w.Policy})
	if err != nil {
		return err
	}
	per := w.Txns / w.Threads
	m.Run(func(t *exec.Thread) {
		for i := 0; i < per; i++ {
			id := uint64(t.TID())<<32 | uint64(i)
			t.BeginWork(id)
			h.Atomic(t, func(tx *pstm.Tx) {
				v := uint64(i + 1)
				tx.Store(t.TID()*2, v)
				tx.Store(t.TID()*2+1, v)
			})
			t.EndWork(id)
		}
	})
	return nil
}

// PSTMRow is one row of the pstm persist-concurrency table.
type PSTMRow struct {
	Policy     pstm.Policy
	Threads    int
	Result     core.Result
	PathPerTxn float64
}

// PSTMModelFor maps pstm policies to their target models.
func PSTMModelFor(p pstm.Policy) core.Model {
	switch p {
	case pstm.PolicyStrict:
		return core.Strict
	case pstm.PolicyStrand:
		return core.Strand
	default:
		return core.Epoch
	}
}

// PSTMTable evaluates persist concurrency of paired-word durable
// transactions (racing excluded: unsafe for this structure), fanning
// the (threads × policy) grid across sw workers.
func PSTMTable(txns int, threads []int, seed int64, sw sweep.Config) ([]PSTMRow, error) {
	if txns <= 0 {
		txns = 1000
	}
	if len(threads) == 0 {
		threads = []int{1, 4}
	}
	type cell struct {
		threads int
		policy  pstm.Policy
	}
	var grid []cell
	for _, th := range threads {
		for _, pol := range pstm.Policies {
			if pol == pstm.PolicyRacingEpoch {
				continue
			}
			grid = append(grid, cell{th, pol})
		}
	}
	rows := make([]PSTMRow, 0, len(grid))
	err := sweep.Run(len(grid), sw.Named("pstm"),
		func(i int) (PSTMRow, error) {
			c := grid[i]
			w := PSTMWorkload{Policy: c.policy, Threads: c.threads, Txns: txns, Seed: seed}
			r, err := streamSim(core.Params{Model: PSTMModelFor(c.policy)}, func(s trace.Sink) error { return RunPSTM(w, s) })
			if err != nil {
				return PSTMRow{}, fmt.Errorf("bench: pstm %v/%dT: %w", c.policy, c.threads, err)
			}
			return PSTMRow{Policy: c.policy, Threads: c.threads, Result: r, PathPerTxn: r.PathPerWork()}, nil
		},
		func(_ int, r PSTMRow) error {
			rows = append(rows, r)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderPSTM formats the pstm table.
func RenderPSTM(rows []PSTMRow) *stats.Table {
	t := stats.NewTable("policy", "threads", "critical-path", "path/txn", "coalesced")
	for _, r := range rows {
		t.AddRow(
			r.Policy.String(), fmt.Sprint(r.Threads),
			fmt.Sprint(r.Result.CriticalPath),
			fmt.Sprintf("%.2f", r.PathPerTxn),
			fmt.Sprint(r.Result.Coalesced),
		)
	}
	return t
}
