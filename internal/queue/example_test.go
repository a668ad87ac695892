package queue_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/queue"
)

// ExampleQueue shows the basic persistent-queue lifecycle on the
// simulated machine: insert, remove, and post-crash recovery.
func ExampleQueue() {
	m := exec.NewMachine(exec.Config{})
	s := m.SetupThread()
	q := queue.MustNew(s, queue.Config{
		DataBytes: 4096,
		Design:    queue.CWL,
		Policy:    core.PolicyEpoch,
	})

	q.Insert(s, []byte("first"))
	q.Insert(s, []byte("second"))
	if payload, ok := q.Remove(s); ok {
		fmt.Printf("removed %q\n", payload)
	}

	// Recovery reads the live entries straight out of the NVRAM image;
	// the report discloses any corruption it detected.
	entries, rep, err := queue.Recover(m.PersistentImage(), q.Meta())
	if err != nil {
		panic(err)
	}
	for _, e := range entries {
		fmt.Printf("recovered %q\n", e.Payload)
	}
	fmt.Println("corruption detected:", rep.Detected())
	// Output:
	// removed "first"
	// recovered "second"
	// corruption detected: false
}
