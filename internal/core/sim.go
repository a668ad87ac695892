package core

import (
	"sync"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Sim is the persist-timing simulator (§7 "Persist Timing Simulation").
// It consumes one SC-ordered trace event at a time — it implements
// trace.Sink, so it can observe an internal/exec run live, and several
// Sims (one per model) can share one execution through a trace.Tee.
//
// Per the paper: "Persist times are tracked per address (both
// persistent and volatile) as well as per thread according to the
// persistency model. ... [E]ach persist occurs after or coalesces with
// the most recent persists observed through (1) each load operand, (2)
// the last store to the address being overwritten, and (3) any persists
// observed by previous instructions on the same thread", with
// load-before-store conflicts additionally tracked to realize SC rather
// than TSO conflict ordering. "Persists' ability to coalesce is
// similarly propagated through memory and thread state."
//
// The ordering kernel applies those rules to Ctx values; the Sim
// supplies how a persist is placed or coalesced, and reports it.
type Sim struct {
	k      Kernel[Ctx, *simRules]
	params Params
	// atoms tracks each atomic block's open (most recent) persist: its
	// level, and the global placement sequence when it opened (for the
	// finite coalescing window). Persists exist only in the persistent
	// space, so one table suffices.
	atoms table[openPersist]

	res Result
	err error
	// lastWorkPath is the critical path at the previous EndWork (for
	// Params.TrackWorkPath).
	lastWorkPath int64
	// probe, when non-nil, observes the persist timeline (telemetry).
	probe Probe
}

// openPersist is an atomic block's most recent NVRAM write: candidates
// coalesce into it while it is still buffered. A zero lvl means the
// block has no open persist this run (placed persists are at level 1
// or above).
type openPersist struct {
	lvl int64
	seq int64 // global placement number when opened
	id  int64 // placed-persist id (provenance)
}

// NewSim constructs a simulator; Params are validated here.
func NewSim(p Params) (*Sim, error) {
	s := &Sim{}
	if err := s.Reset(p); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset reinitializes the simulator for a fresh run under p, retaining
// the allocated state tables so one Sim can replay many traces without
// churning the allocator. Invalidation is O(1): the kernel's generation
// stamp is bumped and stale pages reinitialize lazily on first touch.
// Any attached probe is detached.
func (s *Sim) Reset(p Params) error {
	if err := s.k.Reset(&p, (*simRules)(s), zeroCtx); err != nil {
		return err
	}
	s.params = p
	s.atoms.reset(memory.BlockOf(memory.PersistentBase, p.AtomicGranularity), openPersist{})
	s.res = Result{Model: p.Model, Params: p}
	s.err = nil
	s.lastWorkPath = 0
	s.probe = nil
	return nil
}

// MustNewSim is NewSim for static parameters.
func MustNewSim(p Params) *Sim {
	s, err := NewSim(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Err returns the first event-processing error, if any.
func (s *Sim) Err() error { return s.err }

// Result finalizes and returns the simulation outcome.
func (s *Sim) Result() Result {
	s.res.Events = s.k.events
	return s.res
}

// Emit implements trace.Sink.
func (s *Sim) Emit(e trace.Event) {
	if s.err != nil {
		return
	}
	if err := s.Feed(e); err != nil {
		s.err = err
	}
}

// Feed validates and processes one event in SC order.
func (s *Sim) Feed(e trace.Event) error { return s.k.Feed(e) }

// simRules is a Sim as its kernel sees it: the Rules over Ctx. It is
// a separate type so the rule steps stay out of Sim's method set.
type simRules Sim

// Import, Export and Join are merge: a context is a value, so the
// kernel's thread- and block-owned values need no copies.
func (*simRules) Import(dst *Ctx, src Ctx) { *dst = merge(*dst, src) }
func (*simRules) Export(v, t Ctx) Ctx      { return merge(v, t) }
func (*simRules) Join(a, b Ctx) Ctx        { return merge(a, b) }

// Bind folds the epoch state into the active dependence context.
func (*simRules) Bind(t *Thread[Ctx]) {
	t.Active = merge(merge(t.Active, t.Pending), t.EpochMax)
	t.Pending, t.EpochMax = zeroCtx, zeroCtx
}

// Clear drops the thread's dependences at a new strand.
func (*simRules) Clear(t *Thread[Ctx]) {
	t.Active, t.Pending, t.EpochMax = zeroCtx, zeroCtx, zeroCtx
}

// EpochMark counts syncs and reports barriers and syncs to the probe.
func (s *simRules) EpochMark(e trace.Event, t *Thread[Ctx]) {
	sync := e.Kind == trace.PersistSync
	if sync {
		s.res.Syncs++
	}
	if s.probe != nil {
		s.probe.EpochMark(e.TID, s.k.events-1, t.Epoch, sync)
	}
}

// StrandMark reports a new strand to the probe.
func (s *simRules) StrandMark(e trace.Event, t *Thread[Ctx]) {
	if s.probe != nil {
		s.probe.StrandMark(e.TID, s.k.events-1, t.Strand)
	}
}

// WorkMark counts completed work items, attributing critical-path
// growth to them with Params.TrackWorkPath, and reports brackets to
// the probe.
func (s *simRules) WorkMark(e trace.Event) {
	begin := e.Kind == trace.BeginWork
	if !begin {
		s.res.WorkItems++
		if s.params.TrackWorkPath {
			s.res.WorkPathDeltas = append(s.res.WorkPathDeltas, s.res.CriticalPath-s.lastWorkPath)
			s.lastWorkPath = s.res.CriticalPath
		}
	}
	if s.probe != nil {
		s.probe.WorkMark(e.TID, s.k.events-1, e.Val, begin)
	}
}

// Persist handles stores and RMWs to the persistent space. Each atomic
// block fragment of the access is one persist operation; it coalesces
// with the open persist of its atomic block when every dependence not
// already part of that open persist is strictly older, else it is
// placed at a new level.
func (s *simRules) Persist(e trace.Event, t *Thread[Ctx], blocks []*Block[Ctx]) Ctx {
	// Gather the dependence context across all spanned tracking blocks.
	// Alongside the merge, track through which channel the persist
	// supplying the maximum level arrived — the channel is the
	// constraint's class (program order from the thread, conflict from
	// writer/reader contexts; the writer is also the block's last
	// persist).
	dep, depClass := t.Active, DepProgramOrder
	absorb := func(c Ctx) {
		if c.Lvl > dep.Lvl || (c.Lvl == dep.Lvl && dep.id < 0 && c.id >= 0) {
			depClass = DepConflict
		}
		dep = merge(dep, c)
	}
	for _, bs := range blocks {
		absorb(bs.Writer)
		absorb(bs.Reader)
	}
	if dep.id < 0 {
		depClass = DepNone
	}

	// Place (or coalesce) one persist per spanned atomic block.
	firstA, lastA := memory.BlockSpan(e.Addr, int(e.Size), s.params.AtomicGranularity)
	placed := zeroCtx
	for ab := firstA; ab <= lastA; ab++ {
		s.res.Persists++
		ae := s.atoms.at(ab, s.k.gen)
		open, isOpen := *ae, ae.lvl > 0
		stillBuffered := isOpen &&
			(s.params.CoalesceWindow == 0 || s.res.Placed-open.seq <= s.params.CoalesceWindow)
		var lvl, id int64
		if !s.params.NoCoalescing && stillBuffered && dep.Excluding(ab) < open.lvl {
			// Coalesce: the write joins the open persist of this atomic
			// block; every other dependence persists strictly earlier.
			lvl, id = open.lvl, open.id
			s.res.Coalesced++
			if s.probe != nil {
				s.probe.PersistPlaced(PersistRecord{
					EventIndex: s.k.events - 1,
					TID:        e.TID, Addr: e.Addr, Size: e.Size, Block: ab,
					ID: id, Level: lvl, Coalesced: true,
					DepID: -1, DepClass: DepNone, DepLevel: dep.Lvl,
					Epoch: t.Epoch, Strand: t.Strand,
				})
			}
		} else {
			lvl = dep.Lvl + 1
			depID, class := dep.id, depClass
			if isOpen && open.lvl >= lvl {
				// Same-block serialization: the new NVRAM write is ordered
				// behind the block's open persist (strong persist
				// atomicity), which here is the binding constraint.
				lvl, depID, class = open.lvl+1, open.id, DepAtomicity
			}
			s.res.Placed++
			id = s.res.Placed - 1
			*ae = openPersist{lvl: lvl, seq: s.res.Placed, id: id}
			s.res.CriticalPath = max(s.res.CriticalPath, lvl)
			if s.probe != nil {
				s.probe.PersistPlaced(PersistRecord{
					EventIndex: s.k.events - 1,
					TID:        e.TID, Addr: e.Addr, Size: e.Size, Block: ab,
					ID: id, Level: lvl,
					DepID: depID, DepClass: class, DepLevel: lvl - 1,
					Epoch: t.Epoch, Strand: t.Strand,
				})
			}
		}
		placed = merge(placed, persistCtx(lvl, ab, id))
	}

	// The thread observes its own persist: immediately under strict
	// (program order orders subsequent persists), at the next barrier
	// under epoch/strand.
	if s.k.spec.Immediate {
		t.Active = merge(t.Active, placed)
	} else {
		t.EpochMax = merge(t.EpochMax, placed)
		t.Pending = merge(t.Pending, dep)
	}
	// The placed persist alone becomes the blocks' writer: a
	// single-sourced context maximizes later same-block coalescing (the
	// head-pointer coalescing the paper notes in §6).
	return placed
}

// simPool recycles simulators across Simulate calls: sweeps replay the
// same trace under thousands of parameter combinations, and the state
// tables' pages are the dominant allocation of each run.
var simPool = sync.Pool{New: func() any { return &Sim{} }}

// AcquireSim returns a pooled simulator reset to p — the streaming
// equivalent of Simulate for callers that feed events live (via Emit or
// as a trace.Sink) rather than replaying a stored trace. Pass the
// simulator to ReleaseSim when its Result has been taken; the caller
// must not retain it afterwards.
func AcquireSim(p Params) (*Sim, error) {
	s := simPool.Get().(*Sim)
	if err := s.Reset(p); err != nil {
		simPool.Put(s)
		return nil, err
	}
	return s, nil
}

// ReleaseSim recycles a simulator obtained from AcquireSim.
func ReleaseSim(s *Sim) {
	if s != nil {
		simPool.Put(s)
	}
}

// Simulate runs a complete in-memory trace through a pooled simulator.
func Simulate(tr *trace.Trace, p Params) (Result, error) {
	s := simPool.Get().(*Sim)
	defer simPool.Put(s)
	if err := s.Reset(p); err != nil {
		return Result{}, err
	}
	if err := s.replay(tr, true); err != nil {
		return Result{}, err
	}
	return s.Result(), nil
}

// SimulateAll runs one trace through every model in Models with shared
// granularity parameters (base.Model is ignored), returning results in
// Models order. One pooled simulator replays the trace once per model,
// so its table pages serve every model in turn. The first pass
// validates each event, and fails as Simulate under that model would;
// the later passes replay the events it accepted without validating
// them again.
func SimulateAll(tr *trace.Trace, base Params) ([]Result, error) {
	s := simPool.Get().(*Sim)
	defer simPool.Put(s)
	out := make([]Result, len(Models))
	for i, m := range Models {
		p := base
		p.Model = m
		if err := s.Reset(p); err != nil {
			return nil, err
		}
		if err := s.replay(tr, i == 0); err != nil {
			return nil, err
		}
		out[i] = s.Result()
	}
	return out, nil
}

// replay feeds every event of tr to s, validating each one if validate
// is set; otherwise the events must have passed Event.Validate.
func (s *Sim) replay(tr *trace.Trace, validate bool) error {
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			if err := s.k.feed(c.Event(i), validate); err != nil {
				return err
			}
		}
	}
	return nil
}
