package workload

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/queue"
	"repro/internal/trace"
)

// validatingSink checks every event it receives with Validate and
// keeps the first failure.
type validatingSink struct {
	n   int
	err error
}

func (s *validatingSink) Emit(e trace.Event) {
	if err := e.Validate(); err != nil && s.err == nil {
		s.err = fmt.Errorf("event %d (%v): %w", s.n, e, err)
	}
	s.n++
}

// TestFixturesEmitOnlyValidEvents pins that the execution engine's
// events are valid by construction (it checks none of them itself):
// every shipped fixture, run under SC and PSO, hands a sink only events
// that Validate accepts.
func TestFixturesEmitOnlyValidEvents(t *testing.T) {
	fixtures := []Options{
		{Workload: "queue", Design: queue.CWL},
		{Workload: "queue", Design: queue.TwoLock},
		{Workload: "journal"},
		{Workload: "pstm"},
		{Workload: "kv", Shards: 2, Keys: 64, ReadFrac: 0.5, ZipfS: 1.1},
	}
	for _, o := range fixtures {
		for _, pol := range core.Policies {
			for _, cons := range []exec.Consistency{exec.SC, exec.PSO} {
				o := o
				o.Policy, o.Model, o.Threads, o.Inserts, o.Payload, o.Seed = pol, pol.Model(), 3, 24, 40, 7
				name := fmt.Sprintf("%s/%v/%v", o.Workload, pol, cons)
				if o.Workload == "queue" {
					name = fmt.Sprintf("%s/%v", name, o.Design)
				}
				sink := &validatingSink{}
				m := exec.NewMachine(exec.Config{Threads: o.Threads, Seed: o.Seed, Sink: sink, Consistency: cons})
				_, body, err := setup(o, m)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				m.Run(body)
				if sink.err != nil {
					t.Errorf("%s: %v", name, sink.err)
				}
				if sink.n == 0 {
					t.Errorf("%s: no events", name)
				}
			}
		}
	}
}
