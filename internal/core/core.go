// Package core implements the paper's primary contribution: memory
// persistency models and the trace-driven persist-ordering timing
// simulation used to evaluate them (§4–§7).
//
// A memory persistency model prescribes which NVRAM writes (persists)
// must become durable before which others, from the perspective of a
// *recovery observer* that atomically reads all of persistent memory at
// the moment of failure. Package core consumes a sequentially
// consistent memory trace (produced by internal/exec) and computes, for
// each persistency model, the *persist ordering constraint critical
// path*: the length of the longest chain of ordered persists. Following
// the paper's methodology (§7), the memory system is assumed to have
// infinite bandwidth and banks but finite persist latency, so this
// critical path is a best-case, implementation-independent measure of
// persist concurrency, and
//
//	persist-bound throughput = work items / (critical path × latency).
//
// The simulation also models persist coalescing (§3): persists within
// one atomically persistable memory block merge into a single NVRAM
// write when no ordering constraint is violated, and dependence
// (conflict) tracking at configurable granularity, which introduces
// persist false sharing when coarse (§8.2).
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/memory"
)

// Model selects a memory persistency model (§5).
type Model uint8

const (
	// Strict couples persistency to the consistency model (§5.1): the
	// recovery observer participates in SC like an extra processor, so
	// every happens-before edge of volatile memory order also orders
	// persists. Persist barriers and strands are ignored. The critical
	// path computed for Strict corresponds to *buffered* strict
	// persistency (§4.1), the paper's best case for the model; the
	// unbuffered variant additionally stalls execution (see
	// bench.UnbufferedTime).
	Strict Model = iota
	// Epoch is epoch persistency (§5.2), the BPFS-inspired model with
	// the paper's corrections: persist barriers divide each thread into
	// epochs; persists within an epoch are concurrent; conflicting
	// accesses (including load-before-store, i.e. SC rather than TSO
	// conflict ordering) propagate persist order between threads; strong
	// persist atomicity orders persists to the same address.
	Epoch
	// EpochTSO is the BPFS ablation (§5.2 discussion): like Epoch but
	// load-before-store conflicts are invisible (TSO conflict ordering)
	// and only conflicts on the persistent address space propagate
	// dependence.
	EpochTSO
	// Strand is strand persistency (§5.3), the paper's new model:
	// NewStrand clears all previously observed persist dependences on
	// the issuing thread, so strands order only through persist barriers
	// within the strand and strong persist atomicity across everything.
	Strand
)

// String names the model as in the paper's tables.
func (m Model) String() string {
	switch m {
	case Strict:
		return "strict"
	case Epoch:
		return "epoch"
	case EpochTSO:
		return "epoch-tso"
	case Strand:
		return "strand"
	default:
		return fmt.Sprintf("model(%d)", uint8(m))
	}
}

// Models lists the evaluated models in presentation order.
var Models = []Model{Strict, Epoch, EpochTSO, Strand}

// Params configures a simulation.
type Params struct {
	// Model is the persistency model to apply.
	Model Model
	// TrackingGranularity is the block size in bytes at which conflicts
	// (persist ordering constraints) propagate through memory; coarse
	// tracking introduces persist false sharing (§8.2, Figure 5).
	// Power of two, ≥ 8. Zero means 8.
	TrackingGranularity uint64
	// AtomicGranularity is the atomic persist size in bytes: the unit
	// within which persists coalesce (§8.2, Figure 4). Power of two,
	// ≥ 8. Zero means 8.
	AtomicGranularity uint64
	// NoCoalescing disables persist coalescing entirely (ablation).
	NoCoalescing bool
	// TrackWorkPath records, for every completed work item, how much
	// the global critical path grew while it was the latest completion
	// (Result.WorkPathDeltas). Costs one slice append per work item.
	TrackWorkPath bool
	// CoalesceWindow bounds how long a placed persist stays open for
	// coalescing, measured in subsequently placed persists — a model of
	// a finite persist buffer: a write can only merge into a persist
	// that is still buffered, not one that drained long ago. 0 means
	// unbounded (the paper's idealized assumption). Small windows bound
	// the otherwise unbounded head-pointer coalescing that strand
	// persistency enjoys on the queue (§6).
	CoalesceWindow int64
}

func (p *Params) normalize() error {
	if int(p.Model) >= len(specs) {
		return fmt.Errorf("core: unknown model %v", p.Model)
	}
	if p.TrackingGranularity == 0 {
		p.TrackingGranularity = memory.WordSize
	}
	if p.AtomicGranularity == 0 {
		p.AtomicGranularity = memory.WordSize
	}
	if !memory.IsPowerOfTwo(p.TrackingGranularity) || p.TrackingGranularity < memory.WordSize {
		return fmt.Errorf("core: tracking granularity %d must be a power of two >= %d", p.TrackingGranularity, memory.WordSize)
	}
	if !memory.IsPowerOfTwo(p.AtomicGranularity) || p.AtomicGranularity < memory.WordSize {
		return fmt.Errorf("core: atomic persist granularity %d must be a power of two >= %d", p.AtomicGranularity, memory.WordSize)
	}
	return nil
}

// Result reports a simulation's outcome.
type Result struct {
	// Model and Params echo the configuration.
	Model  Model
	Params Params
	// Events is the number of trace events consumed.
	Events int64
	// Persists is the number of persist operations issued (stores/RMWs
	// to the persistent space, counted per atomic-block fragment).
	Persists int64
	// Placed is the number of distinct NVRAM writes after coalescing.
	Placed int64
	// Coalesced is Persists − Placed.
	Coalesced int64
	// CriticalPath is the length of the longest chain of ordered
	// persists, in persists (multiply by persist latency for time).
	CriticalPath int64
	// WorkItems is the number of completed BeginWork/EndWork brackets
	// (queue inserts).
	WorkItems int64
	// Syncs is the number of PersistSync operations observed.
	Syncs int64
	// WorkPathDeltas (with Params.TrackWorkPath) holds the critical-path
	// growth attributed to each completed work item, in completion
	// order. Their sum equals CriticalPath; the distribution shows
	// whether ordering cost is uniform (strict: every insert pays) or
	// bursty (strand: only coalescing-window closures pay).
	WorkPathDeltas []int64
}

// PathPerWork is the average persist critical path contributed per work
// item — the y-axis of the paper's Figures 4 and 5.
func (r Result) PathPerWork() float64 {
	if r.WorkItems == 0 {
		return float64(r.CriticalPath)
	}
	return float64(r.CriticalPath) / float64(r.WorkItems)
}

// PersistBoundRate returns the work-item throughput (items/second)
// permitted by persist ordering constraints alone, for a given persist
// latency: items / (criticalPath × latency). +Inf when the critical
// path is zero.
func (r Result) PersistBoundRate(latency time.Duration) float64 {
	if latency <= 0 {
		panic("core: PersistBoundRate requires positive latency")
	}
	t := float64(r.CriticalPath) * latency.Seconds()
	if t == 0 {
		return math.Inf(1)
	}
	return float64(r.WorkItems) / t
}
