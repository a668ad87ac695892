// Quickstart: trace a tiny persistent workload on the simulated
// machine and compare persist critical paths under the paper's
// persistency models.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	// Record a trace of a little two-thread program that persists a
	// handful of values with epoch annotations.
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 2, Seed: 1, Sink: tr})

	// Shared state is allocated before the threads start.
	s := m.SetupThread()
	buf := s.MallocPersistent(1024, 64) // a persistent buffer
	cnt := s.MallocPersistent(8, 64)    // a persistent counter

	m.Run(func(t *exec.Thread) {
		for i := 0; i < 10; i++ {
			t.BeginWork(uint64(t.TID()*100 + i))
			// Persist a record: three fields, then a barrier, then bump
			// the shared counter. The barrier orders record → counter;
			// the three field persists stay concurrent under relaxed
			// models.
			rec := buf + memory.Addr(t.TID()*512+i*48)
			t.Store8(rec, uint64(i))
			t.Store8(rec+8, uint64(i*i))
			t.Store8(rec+16, uint64(t.TID()))
			t.PersistBarrier()
			t.Add8(cnt, 1)
			t.EndWork(uint64(t.TID()*100 + i))
		}
	})

	fmt.Printf("traced %d events, %d persists\n\n",
		tr.Len(), trace.Summarize(tr).Persists)

	// Replay the same trace through every persistency model
	// (SimulateAll walks it once, with every model as one lane of a
	// pooled simulator).
	const latency = 500 * time.Nanosecond
	tbl := stats.NewTable("model", "critical path", "coalesced", "persist-bound rate")
	rs, err := core.SimulateAll(tr, core.Params{})
	if err != nil {
		panic(err)
	}
	for _, r := range rs {
		tbl.AddRow(
			r.Model.String(),
			fmt.Sprint(r.CriticalPath),
			fmt.Sprint(r.Coalesced),
			stats.FormatRate(r.PersistBoundRate(latency)),
		)
	}
	fmt.Printf("persist concurrency by model (at %v persist latency):\n\n%s", latency, tbl)
	fmt.Println("\nstrict persistency serializes each thread's persists in program")
	fmt.Println("order; epoch persistency keeps each record's fields concurrent and")
	fmt.Println("pays only for the record→counter barrier; the counter persists")
	fmt.Println("serialize under every model (strong persist atomicity).")
}
