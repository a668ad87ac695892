// Package bench is the experiment harness: it wires workloads (the
// persistent queue), the execution engine, and the persistency-model
// simulator together to regenerate every table and figure in the
// paper's evaluation (§8), plus this reproduction's ablations.
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
	"repro/internal/durable"
	"repro/internal/exec"
	"repro/internal/memory"
	"repro/internal/queue"
	"repro/internal/trace"
)

// Workload describes one queue benchmark configuration.
type Workload struct {
	// Design selects CWL or TwoLock.
	Design queue.Design
	// Policy selects the annotation discipline (Table 1 column).
	Policy queue.Policy
	// Threads is the simulated thread count (Table 1 uses 1 and 8).
	Threads int
	// Inserts is the total number of inserts across all threads.
	Inserts int
	// PayloadLen is the entry payload size; the paper uses 100 bytes.
	PayloadLen int
	// Seed drives the interleaving.
	Seed int64
	// DataBytes sizes the data segment; 0 auto-sizes so the run never
	// wraps (the evaluation is insert-only, as in the paper).
	DataBytes uint64
	// Overwrite runs the queue as an overwriting log (set DataBytes
	// smaller than the inserted volume to exercise buffer reuse, which
	// ratchets persist levels through strong persist atomicity on
	// recycled blocks).
	Overwrite bool
	// Integrity runs the queue with the corruption-detecting durable
	// format (internal/durable) — CRC-framed entries and dual-copy
	// pointer words — so benchmarks expose the framing overhead.
	Integrity bool
}

func (w *Workload) normalize() error {
	if w.Threads <= 0 {
		w.Threads = 1
	}
	if w.Inserts <= 0 {
		w.Inserts = 1000
	}
	if w.PayloadLen <= 0 {
		w.PayloadLen = 100
	}
	if w.DataBytes == 0 {
		slots := uint64(w.Inserts+w.Threads+1) * queue.SlotBytes(w.PayloadLen)
		w.DataBytes = slots + queue.SlotAlign
		if rem := w.DataBytes % queue.SlotAlign; rem != 0 {
			w.DataBytes += queue.SlotAlign - rem
		}
	}
	if w.DataBytes%queue.SlotAlign != 0 {
		return fmt.Errorf("bench: DataBytes %d not slot-aligned", w.DataBytes)
	}
	return nil
}

// String names the configuration compactly.
func (w Workload) String() string {
	return fmt.Sprintf("%v/%v/%dT", w.Design, w.Policy, w.Threads)
}

// Run executes the workload on the simulated machine, streaming events
// into sink, and returns the machine (for final-state inspection).
func Run(w Workload, sink trace.Sink) (*exec.Machine, error) {
	if err := w.normalize(); err != nil {
		return nil, err
	}
	m := exec.NewMachine(exec.Config{Threads: w.Threads, Seed: w.Seed, Sink: sink})
	s := m.SetupThread()
	q, err := queue.New(s, queue.Config{
		DataBytes:  w.DataBytes,
		Design:     w.Design,
		Policy:     w.Policy,
		MaxThreads: w.Threads,
		Overwrite:  w.Overwrite,
		Integrity:  w.Integrity,
	})
	if err != nil {
		return nil, err
	}
	per := w.Inserts / w.Threads
	extra := w.Inserts % w.Threads
	m.Run(func(t *exec.Thread) {
		n := per
		if t.TID() < extra {
			n++
		}
		for i := 0; i < n; i++ {
			id := uint64(t.TID())<<32 | uint64(i)
			t.BeginWork(id)
			q.Insert(t, queue.MakePayload(id, w.PayloadLen))
			t.EndWork(id)
		}
	})
	return m, nil
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

// streamSim executes a workload body once, streaming straight into a
// pooled simulator (no trace storage) — Simulate for the journal and
// pstm workloads.
func streamSim(p core.Params, run func(trace.Sink) error) (core.Result, error) {
	sim, err := core.AcquireSim(p)
	if err != nil {
		return core.Result{}, err
	}
	defer core.ReleaseSim(sim)
	if err := run(sim); err != nil {
		return core.Result{}, err
	}
	if err := sim.Err(); err != nil {
		return core.Result{}, err
	}
	return sim.Result(), nil
}

// QueueMeta reports the persistent layout Run creates for w without
// executing the workload: queue.New allocates head, tail, then the data
// segment deterministically, so a fresh machine reproduces the
// addresses the real run will use.
func QueueMeta(w Workload) (queue.Meta, error) {
	if err := w.normalize(); err != nil {
		return queue.Meta{}, err
	}
	m := exec.NewMachine(exec.Config{Threads: w.Threads, Seed: w.Seed, Sink: trace.Discard})
	s := m.SetupThread()
	q, err := queue.New(s, queue.Config{
		DataBytes: w.DataBytes, Design: w.Design, Policy: w.Policy,
		MaxThreads: w.Threads, Overwrite: w.Overwrite, Integrity: w.Integrity,
	})
	if err != nil {
		return queue.Meta{}, err
	}
	return q.Meta(), nil
}

// SiteLabel maps persist addresses to the queue's annotation sites
// ("head", "tail", "slot data") given its layout — the labeler
// critical-path attribution reports use.
func SiteLabel(meta queue.Meta) func(memory.Addr) string {
	ptrSpan := memory.Addr(memory.WordSize)
	if meta.Integrity {
		ptrSpan = durable.WordBytes
	}
	return func(a memory.Addr) string {
		switch {
		case a >= meta.Head && a < meta.Head+ptrSpan:
			return "head"
		case a >= meta.Tail && a < meta.Tail+ptrSpan:
			return "tail"
		case a >= meta.Data && a < meta.Data+memory.Addr(meta.DataBytes):
			return "slot data"
		default:
			return "other"
		}
	}
}

// ModelFor maps an annotation policy to the persistency model it is
// written for (Table 1's column pairing: the Racing Epochs column is
// epoch persistency with racing annotations).
func ModelFor(p queue.Policy) core.Model {
	switch p {
	case queue.PolicyStrict:
		return core.Strict
	case queue.PolicyStrand:
		return core.Strand
	default:
		return core.Epoch
	}
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
