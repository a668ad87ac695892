package observer_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/queue"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// ExampleCrashTest traces a few queue inserts, builds their
// persist-order graph, and verifies that every sampled crash state
// recovers.
func ExampleCrashTest() {
	tr := &trace.Trace{}
	m := exec.NewMachine(exec.Config{Threads: 1, Seed: 1, Sink: tr})
	s := m.SetupThread()
	q := queue.MustNew(s, queue.Config{DataBytes: 4096, Design: queue.CWL, Policy: core.PolicyEpoch})
	meta := q.Meta()
	m.Run(func(t *exec.Thread) {
		for i := uint64(0); i < 4; i++ {
			q.Insert(t, queue.MakePayload(i, 40))
		}
	})

	rec := observer.Strict(func(im *memory.Image) (fault.RecoveryReport, error) {
		_, rep, err := queue.Recover(im, meta)
		return rep, err
	})
	g, err := graph.Build(tr, core.Params{Model: core.Epoch})
	if err != nil {
		panic(err)
	}
	out, err := observer.CrashTest(g, observer.Sampled{Samples: 50, Seed: 1}, rec, sweep.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println("all recovered:", out.AllRecovered())
	// Output:
	// all recovered: true
}
