// relaxed: strict persistency under relaxed consistency (§4.1/§4.2),
// executable.
//
// The paper notes that under relaxed consistency "the programmer is
// now responsible for inserting the correct memory barriers", and that
// with decoupled barriers "persists may reorder across store barriers
// and store visibility may reorder across persist barriers". This
// example runs the persistent queue on a PSO-style machine (store
// buffers; visibility reorders) and shows:
//
//  1. without consistency fences, a crash can expose the head pointer
//     ahead of its entry — even under STRICT persistency, whose persist
//     order is exactly the visible store order;
//  2. adding fences at the annotation points restores recovery
//     correctness for every persistency model.
//
// Run with: go run ./examples/relaxed
package main

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

func run(fences bool, policy core.Policy, model core.Model) (reachableCorruption error) {
	for seed := int64(0); seed < 15; seed++ {
		tr := &trace.Trace{}
		m := exec.NewMachine(exec.Config{
			Threads: 2, Seed: seed, Sink: tr,
			Consistency: exec.PSO, // store visibility reorders
		})
		s := m.SetupThread()
		q := queue.MustNew(s, queue.Config{
			DataBytes: 1 << 13, Design: queue.CWL, Policy: policy, Fences: fences,
		})
		meta := q.Meta()
		m.Run(func(t *exec.Thread) {
			for i := 0; i < 6; i++ {
				q.Insert(t, queue.MakePayload(uint64(t.TID())*100+uint64(i), 48))
			}
		})
		rec := observer.Strict(func(im *memory.Image) (fault.RecoveryReport, error) {
			_, rep, err := queue.Recover(im, meta)
			return rep, err
		})
		g, err := graph.Build(tr, core.Params{Model: model})
		if err != nil {
			panic(err)
		}
		out, err := observer.CrashTest(g, observer.Sampled{Samples: 500, Seed: seed}, rec, sweep.Config{})
		if err != nil {
			panic(err)
		}
		if out.FirstCorruption != nil {
			return out.FirstCorruption
		}
	}
	return nil
}

func main() {
	fmt.Println("persistent queue on a PSO machine (store visibility reorders)")
	fmt.Println()

	if corr := run(false, core.PolicyStrict, core.Strict); corr != nil {
		fmt.Printf("strict persistency, no fences : CORRUPTIBLE — %v\n", corr)
	} else {
		fmt.Println("strict persistency, no fences : no corruption sampled (rerun)")
	}
	if corr := run(true, core.PolicyStrict, core.Strict); corr == nil {
		fmt.Println("strict persistency, fenced    : every sampled crash state recovers")
	} else {
		panic(fmt.Sprintf("BUG: fenced strict corrupted: %v", corr))
	}
	if corr := run(true, core.PolicyEpoch, core.Epoch); corr == nil {
		fmt.Println("epoch persistency,  fenced    : every sampled crash state recovers")
	} else {
		panic(fmt.Sprintf("BUG: fenced epoch corrupted: %v", corr))
	}

	fmt.Println()
	fmt.Println("on SC machines the queue's persist barriers suffice; on relaxed")
	fmt.Println("consistency the same code also needs store fences, because persist")
	fmt.Println("barriers order persists with respect to *visible* store order —")
	fmt.Println("the decoupling of consistency and persistency the paper formalizes.")
}
