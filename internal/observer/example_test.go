package observer_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/observer"
	"repro/internal/queue"
	"repro/internal/trace"
)

// ExampleCrashTest traces a few queue inserts and verifies that every
// sampled crash state recovers.
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

	rec := func(im *memory.Image) error {
		_, err := queue.Recover(im, meta)
		return err
	}
	out, err := observer.CrashTest(tr, core.Params{Model: core.Epoch}, rec, observer.Config{Samples: 50, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("all recovered:", out.AllRecovered())
	// Output:
	// all recovered: true
}
