package graph

import "repro/internal/trace"

// BarrierInfo describes the effect one persistency annotation event had
// on the constraint graph under the model it was built for. Build
// records one per annotation, in trace order, in Graph.Barriers. It is
// the input to the persistency checker's redundant-barrier lint: an
// annotation that binds nothing changes no dependence frontier, so
// removing it leaves the constraint graph's edge set identical — the
// barrier is pure overhead under that model.
type BarrierInfo struct {
	// Seq is the annotation event's position in the SC order.
	Seq uint64
	// TID is the issuing thread.
	TID int32
	// Kind is the annotation kind (PersistBarrier, NewStrand,
	// PersistSync).
	Kind trace.Kind
	// Epoch counts the thread's annotations of every kind up to and
	// including this one: core.Thread's Epoch plus Strand. It is not
	// core.PersistRecord.Epoch, which counts barriers and syncs only:
	// under strand persistency, NewStrand; Store; PersistBarrier; Store
	// reports annotations 1 and 2 but persists in epochs 0 and 1.
	Epoch int64
	// Redundant reports that the annotation changed no builder state:
	// for a barrier, the thread had no unbound persists and no imported
	// dependences outside its active frontier; for NewStrand, the thread
	// had no dependence state to clear. Models that ignore the
	// annotation kind entirely (e.g. barriers under strict persistency)
	// make it trivially redundant.
	Redundant bool
}

// annotationRedundant reports whether feeding e would change no builder
// state. It must be called immediately before the kernel feeds e.
func (b *builder) annotationRedundant(e trace.Event) bool {
	spec, t := b.k.Spec(), b.k.Thread(e.TID)
	switch {
	case e.Kind == trace.PersistBarrier && !spec.Barriers,
		e.Kind == trace.NewStrand && !spec.Strands:
		// The model ignores the annotation (barriers under strict
		// persistency, strands outside strand persistency).
		return true
	case t == nil:
		return true
	case e.Kind == trace.NewStrand:
		// Clearing is a no-op only when there is nothing to clear.
		return len(t.Active.ids) == 0 && len(t.Pending.ids) == 0 && len(t.EpochMax.ids) == 0
	case len(t.EpochMax.ids) > 0:
		// A barrier/sync binds pending and epochMax into active; with
		// unbound persists the frontier is rebuilt, which future
		// persists observe.
		return false
	}
	// Otherwise it is a no-op iff every imported dependence is already
	// active. PersistSync binds under every model, like a barrier.
	return b.missingFrom(t.Active, t.Pending) == 0
}
