// Package bench is the experiment harness: it wires workloads (the
// persistent queue, the journal and the pstm heap), the execution
// engine, and the persistency-model simulator together to regenerate
// every table and figure in the paper's evaluation (§8), plus this
// reproduction's ablations.
//
// The paper's methodology (§7) computes system throughput as
//
//	min(instruction execution rate, persist-bound rate)
//
// where the instruction rate is measured natively (here: the
// non-simulated queue twin timed on the host) and the persist-bound
// rate comes from the persist ordering constraint critical path under
// 500 ns persists (Table 1) or a latency sweep (Figure 3).
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
)

// Workload describes one harness run: the structure it traces, the
// structure's annotation policy, and the execution that drives it. It
// is comparable, and its normalized form keys the trace cache.
type Workload struct {
	// Structure selects the traced structure, spelled as
	// workload.Options.Workload: "" or "queue" for the §3 persistent
	// queue, "journal" for the redo-journaled metadata store (the
	// paper's journaled-file-system motivation, §6 and §9), "pstm" for
	// paired-word undo-log durable transactions.
	Structure string
	// Design selects CWL or TwoLock (queue only).
	Design queue.Design
	// Policy selects the annotation discipline (Table 1 column).
	Policy core.Policy
	// Threads is the simulated thread count (Table 1 uses 1 and 8).
	Threads int
	// Inserts is the total number of work items across all threads:
	// queue inserts, or journal and pstm transactions.
	Inserts int
	// PayloadLen is the queue entry payload size; the paper uses 100
	// bytes.
	PayloadLen int
	// Seed drives the interleaving.
	Seed int64
	// DataBytes sizes the queue's data segment; 0 auto-sizes so the run
	// never wraps (the evaluation is insert-only, as in the paper).
	DataBytes uint64
	// Overwrite runs the queue as an overwriting log (set DataBytes
	// smaller than the inserted volume to exercise buffer reuse, which
	// ratchets persist levels through strong persist atomicity on
	// recycled blocks).
	Overwrite bool
	// Integrity runs the structure with the corruption-detecting
	// durable format (internal/durable) — CRC-framed records and
	// dual-copy pointer words — so benchmarks expose the framing
	// overhead.
	Integrity bool
}

func (w *Workload) normalize() error {
	if w.Threads <= 0 {
		w.Threads = 1
	}
	if w.Inserts <= 0 {
		w.Inserts = 1000
	}
	return w.size()
}

// size rejects an unknown structure and fills the queue's zero sizes:
// the paper's 100-byte payload, and a data segment that an insert-only
// run never wraps.
func (w *Workload) size() error {
	switch w.Structure {
	case "journal", "pstm":
		return nil
	case "", "queue":
	default:
		return fmt.Errorf("bench: unknown structure %q", w.Structure)
	}
	if w.PayloadLen <= 0 {
		w.PayloadLen = 100
	}
	if w.DataBytes == 0 {
		// SlotBytes is a multiple of SlotAlign, so the sum is aligned.
		w.DataBytes = uint64(w.Inserts+w.Threads+1)*queue.SlotBytes(w.PayloadLen) + queue.SlotAlign
	}
	if w.DataBytes%queue.SlotAlign != 0 {
		return fmt.Errorf("bench: DataBytes %d not slot-aligned", w.DataBytes)
	}
	return nil
}

// String names the configuration compactly.
func (w Workload) String() string {
	switch w.Structure {
	case "", "queue":
		return fmt.Sprintf("%v/%v/%dT", w.Design, w.Policy, w.Threads)
	}
	return fmt.Sprintf("%s %v/%dT", w.Structure, w.Policy, w.Threads)
}

// Run executes the workload on the simulated machine, streaming events
// into sink, and returns the structure's site labeller (annotation-site
// names for persist addresses, which telemetry's critical-path
// attribution reads when it renders). Each item runs inside
// BeginWork/EndWork brackets: the simulator's per-item critical path is
// the paper's metric.
func Run(w Workload, sink trace.Sink) (func(memory.Addr) string, error) {
	if err := w.normalize(); err != nil {
		return nil, err
	}
	m := exec.NewMachine(exec.Config{Threads: w.Threads, Seed: w.Seed, Sink: sink})
	f, err := NewFixture(m.SetupThread(), w, false, nil)
	if err != nil {
		return nil, err
	}
	m.Run(func(t *exec.Thread) {
		for i := range f.Count(t.TID()) {
			id := itemID(t.TID(), i)
			t.BeginWork(id)
			f.Item(t, i)
			t.EndWork(id)
		}
	})
	return f.Label, nil
}

// Trace executes the workload and returns the captured trace (for
// multi-parameter sweeps that replay one execution many times).
func Trace(w Workload) (*trace.Trace, error) {
	tr := &trace.Trace{}
	if _, err := Run(w, tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// Simulate executes the workload once, streaming directly into a
// persistency-model simulator (no trace storage).
func Simulate(w Workload, p core.Params) (core.Result, error) {
	return SimulateProbed(w, p, nil)
}

// SimulateProbed is Simulate with a persist-timeline probe attached to
// the simulator (telemetry tracers implement core.Probe); a nil probe
// is plain Simulate.
func SimulateProbed(w Workload, p core.Params, probe core.Probe) (core.Result, error) {
	sim, err := core.AcquireSim(p)
	if err != nil {
		return core.Result{}, err
	}
	defer core.ReleaseSim(sim)
	if probe != nil {
		sim.SetProbe(probe)
	}
	if _, err := Run(w, sim); err != nil {
		return core.Result{}, err
	}
	if err := sim.Err(); err != nil {
		return core.Result{}, err
	}
	return sim.Result(), nil
}

// NativeRate measures the instruction execution rate: inserts/second of
// the native (non-simulated) queue twin with the same design, thread
// count, and payload size. This plays the role of the paper's Xeon
// E5645 measurement; only the ratio to persist-bound rates matters.
// The native twin ignores Integrity: framing costs persists, not
// instructions, so the instruction rate is the same either way.
func NativeRate(w Workload) (float64, error) {
	if err := w.normalize(); err != nil {
		return 0, err
	}
	q, err := queue.NewNative(queue.Config{
		DataBytes:  w.DataBytes,
		Design:     w.Design,
		MaxThreads: w.Threads,
	})
	if err != nil {
		return 0, err
	}
	per := w.Inserts / w.Threads
	if per == 0 {
		per = 1
	}
	payload := queue.MakePayload(1, w.PayloadLen)
	start := time.Now()
	done := make(chan struct{})
	for t := 0; t < w.Threads; t++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				q.Insert(payload)
			}
		}()
	}
	for t := 0; t < w.Threads; t++ {
		<-done
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	return float64(per*w.Threads) / elapsed.Seconds(), nil
}

// UnbufferedRate estimates throughput under *unbuffered* strict
// persistency (§4.1's baseline, before the buffered optimization):
// execution stalls for every placed persist, so per-item time is the
// instruction time plus persists-per-item × latency.
func UnbufferedRate(r core.Result, instrRate float64, latency time.Duration) float64 {
	if r.WorkItems == 0 || instrRate <= 0 {
		return 0
	}
	ppi := float64(r.Placed) / float64(r.WorkItems)
	t := 1/instrRate + ppi*latency.Seconds()
	return 1 / t
}
