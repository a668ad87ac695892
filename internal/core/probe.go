package core

import (
	"fmt"

	"repro/internal/memory"
)

// DepClass labels the constraint that set a persist's dependence level —
// the probe-side analogue of graph.EdgeClass, classified the same way:
// by the channel that delivered the dominating dependence at placement
// time (§5's three sources of persist order).
type DepClass uint8

const (
	// DepNone: the persist has no dependence (a level-1 root).
	DepNone DepClass = iota
	// DepProgramOrder: the issuing thread's own order (active set):
	// every preceding persist under strict persistency, the previous
	// epoch's persists under epoch/strand.
	DepProgramOrder
	// DepConflict: a conflicting access propagated the dependence
	// through memory (block writer/reader context).
	DepConflict
	// DepAtomicity: strong persist atomicity (§4.3) — the atomic
	// block's open persist forced the level. A same-tracking-block
	// persist that binds through the block's writer is DepConflict.
	DepAtomicity
)

// String names the class as in the attribution reports.
func (c DepClass) String() string {
	switch c {
	case DepNone:
		return "root"
	case DepProgramOrder:
		return "program-order"
	case DepConflict:
		return "conflict"
	case DepAtomicity:
		return "atomicity"
	default:
		return fmt.Sprintf("dep-class(%d)", uint8(c))
	}
}

// DepClasses lists the classes in presentation order.
var DepClasses = []DepClass{DepNone, DepProgramOrder, DepConflict, DepAtomicity}

// PersistRecord describes one persist operation (one atomic-block
// fragment of a store/RMW to NVRAM) as the simulator placed it. It is
// the per-persist provenance the paper's methodology leaves implicit:
// who issued it, where it landed, which level the ordering constraints
// forced, and which constraint was binding.
type PersistRecord struct {
	// EventIndex is the position of the originating event in the fed
	// stream (equals trace Seq when feeding a complete trace).
	EventIndex int64
	// TID is the issuing simulated thread.
	TID int32
	// Addr and Size locate the access; Block is the atomic persist
	// block this fragment belongs to.
	Addr  memory.Addr
	Size  uint8
	Block memory.BlockID
	// ID identifies the NVRAM write: placed persists get sequential ids
	// from 0; a coalesced persist carries the id of the open persist it
	// merged into.
	ID int64
	// Level is the persist's dependence level (critical-path depth).
	Level int64
	// Coalesced reports whether this fragment merged into an already
	// open persist instead of placing a new NVRAM write.
	Coalesced bool
	// DepID is the id of the persist supplying the binding dependence
	// (the critical constraint edge's source), or -1 for a root persist.
	// Coalesced records carry -1: they add no constraint edge.
	DepID int64
	// DepClass classifies the binding constraint.
	DepClass DepClass
	// DepLevel is the dependence level the constraint imposed (the
	// source persist's level; Level == DepLevel+1 for placed persists
	// unless same-block serialization bumped it higher).
	DepLevel int64
	// Epoch and Strand are the issuing thread's annotation indices
	// (counted from the trace's PersistBarrier/NewStrand events,
	// independent of whether the model honors them).
	Epoch  int64
	Strand int64
}

// Probe observes the simulator's persist timeline. All callbacks arrive
// in SC (fed-event) order from Sim.Feed; implementations must not block.
// The epoch/strand/work marks reflect the trace's annotations regardless
// of the model under simulation, so a timeline view shows the annotation
// structure even for models that ignore it.
type Probe interface {
	// PersistPlaced reports one persist fragment, placed or coalesced.
	PersistPlaced(PersistRecord)
	// EpochMark reports a persist barrier (sync=false) or a PersistSync
	// (sync=true) on tid; epoch is the thread's new epoch index.
	EpochMark(tid int32, eventIndex int64, epoch int64, sync bool)
	// StrandMark reports a NewStrand on tid; strand is the thread's new
	// strand index.
	StrandMark(tid int32, eventIndex int64, strand int64)
	// WorkMark reports a BeginWork (begin=true) or EndWork bracket.
	WorkMark(tid int32, eventIndex int64, id uint64, begin bool)
}

// SetProbe attaches a persist-timeline probe. It must be called before
// any event is fed; a nil probe detaches.
func (s *Sim) SetProbe(p Probe) {
	if s.k.events > 0 {
		panic("core: SetProbe after events were fed")
	}
	s.probe = p
}
