// WAL: a database-style write-ahead log on the persistent queue — the
// paper's motivating workload ("several workloads require
// high-performance persistent queues, such as write ahead logs (WAL)
// in databases and journaled file systems", §6).
//
// The example appends SET operations to the queue from several
// simulated threads, then uses the recovery observer to crash the
// system at random points and replays the surviving log records into a
// fresh table, demonstrating the recovery guarantee: the recovered
// table is always a consistent prefix-closed state, never corrupt.
//
// Run with: go run ./examples/wal
package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/queue"
	"repro/internal/trace"
)

// record is one WAL entry: SET key = value by a transaction id.
type record struct {
	txn   uint64
	key   uint64
	value uint64
}

func (r record) encode() []byte {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b[0:], r.txn)
	binary.LittleEndian.PutUint64(b[8:], r.key)
	binary.LittleEndian.PutUint64(b[16:], r.value)
	return b
}

func decode(b []byte) record {
	return record{
		txn:   binary.LittleEndian.Uint64(b[0:]),
		key:   binary.LittleEndian.Uint64(b[8:]),
		value: binary.LittleEndian.Uint64(b[16:]),
	}
}

// replay folds log records into a table.
func replay(entries []queue.Entry) map[uint64]uint64 {
	table := make(map[uint64]uint64)
	for _, e := range entries {
		r := decode(e.Payload)
		table[r.key] = r.value
	}
	return table
}

func main() {
	const (
		threads = 3
		txns    = 8 // per thread
	)

	// Trace a run that appends WAL records under racing-epoch
	// annotations (the paper's high-concurrency configuration).
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: threads, Seed: 7, Sink: tr})
	s := m.SetupThread()
	log := queue.MustNew(s, queue.Config{
		DataBytes:  1 << 13,
		Design:     queue.CWL,
		Policy:     core.PolicyRacingEpoch,
		MaxThreads: threads,
	})
	meta := log.Meta()
	m.Run(func(t *exec.Thread) {
		for i := 0; i < txns; i++ {
			r := record{
				txn:   uint64(t.TID())<<32 | uint64(i),
				key:   uint64(t.TID()*10 + i%4),
				value: uint64(i * 1000),
			}
			log.Insert(t, r.encode())
		}
	})

	// Build the persist-order DAG under epoch persistency and crash the
	// system at random consistent cuts.
	g, err := graph.Build(tr, core.Params{Model: core.Epoch})
	if err != nil {
		panic(err)
	}
	fmt.Printf("WAL run: %d records appended, %d persists in the DAG\n\n",
		threads*txns, g.Len())

	// Crash at increasing points of the persist drain: the recovered
	// log is always a clean prefix of the appended records.
	strict := observer.Strict(func(im *memory.Image) (fault.RecoveryReport, error) {
		_, rep, err := queue.Recover(im, meta)
		return rep, err
	})
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0} {
		im := g.Materialize(g.PrefixCut(int(frac * float64(g.Len()))))
		if err := strict(im); err != nil {
			// Under correct annotations this is unreachable; seeing it
			// would mean the persistency model was violated.
			panic(fmt.Sprintf("WAL corrupt after crash: %v", err))
		}
		entries, _, _ := queue.Recover(im, meta)
		table := replay(entries)
		fmt.Printf("crash at %3.0f%% of persist drain: %2d/%2d records recovered, %d keys replayed — consistent\n",
			frac*100, len(entries), threads*txns, len(table))
	}

	// Adversarial crashes: random consistent cuts (out-of-order persist
	// completion within the model's freedom) must also recover.
	rng := rand.New(rand.NewSource(99))
	corrupt := 0
	for i := 0; i < 2000; i++ {
		cut := g.SampleCut(rng, []float64{0.3, 0.7, 0.95}[i%3])
		if err := strict(g.Materialize(cut)); err != nil {
			corrupt++
		}
	}
	fmt.Printf("\n2000 adversarial crash states: %d corrupt\n", corrupt)
	if corrupt > 0 {
		panic("WAL recovery violated — persistency model broken")
	}

	fmt.Println("\nevery crash exposes a clean log prefix per the queue's recovery")
	fmt.Println("rule; replay always yields a consistent table. This is the paper's")
	fmt.Println("recovery-correctness guarantee, exercised end to end.")
}
