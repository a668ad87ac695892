package core

import (
	"sync"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Sim is the persist-timing simulator (§7 "Persist Timing Simulation").
// It consumes one SC-ordered trace event at a time — it implements
// trace.Sink, so it can observe an internal/exec run live. A Sim runs
// one model, or (inside SimulateAll and SimulateAllLive) every model as
// one lane each of a single walk.
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
	k Kernel[Ctx, *simLane]
	// lanes holds each kernel lane's rules and result.
	lanes []simLane
	// atoms tracks each atomic block's open (most recent) persist per
	// lane: its level and id. Persists exist only in the persistent
	// space, so one table suffices.
	atoms table[openPersist]

	err error
	// probe, when non-nil, observes the persist timeline (telemetry).
	probe Probe
}

// simLane is one lane of a Sim as its kernel sees it: the Rules over
// Ctx for one model, and that model's result.
type simLane struct {
	s      *Sim
	lane   int
	params Params
	res    Result
	// lastWorkPath is the critical path at the previous EndWork (for
	// Params.TrackWorkPath).
	lastWorkPath int64
}

// openPersist is an atomic block's most recent NVRAM write: candidates
// coalesce into it while it is still buffered. A zero lvl means the
// block has no open persist this run (placed persists are at level 1
// or above).
type openPersist struct {
	lvl int64
	// id is the placed-persist id (provenance). Ids count placements
	// from 0, so the persist opened when id+1 persists had been placed,
	// which is what the finite coalescing window measures from.
	id int64
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
// churning the allocator. Invalidation is O(1): the tables' generation
// stamps are bumped and stale entries reinitialize lazily on first
// touch. Any attached probe is detached.
func (s *Sim) Reset(p Params) error {
	models := [1]Model{p.Model}
	return s.reset(p, models[:])
}

// reset readies s for a fresh run with one lane per model in models,
// each under p's other parameters (p.Model is validated, then ignored).
func (s *Sim) reset(p Params, models []Model) error {
	if err := s.k.reset(&p, zeroCtx, len(models)); err != nil {
		return err
	}
	if len(models) > cap(s.lanes) {
		s.lanes = make([]simLane, len(models))
	}
	s.lanes = s.lanes[:len(models)]
	for i, m := range models {
		lp := p
		lp.Model = m
		s.lanes[i] = simLane{s: s, lane: i, params: lp, res: Result{Model: m, Params: lp}}
		s.k.setLane(i, m, &s.lanes[i])
	}
	s.atoms.reset(memory.BlockOf(memory.PersistentBase, p.AtomicGranularity), openPersist{}, len(models))
	s.err = nil
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
func (s *Sim) Result() Result { return s.result(0) }

// result finalizes and returns lane i's outcome.
func (s *Sim) result(i int) Result {
	r := s.lanes[i].res
	r.Events = s.k.events
	return r
}

// Emit implements trace.Sink.
func (s *Sim) Emit(e trace.Event) {
	if s.err != nil {
		return
	}
	if err := s.k.Feed(e); err != nil {
		s.err = err
	}
}

// Feed validates and processes one event in SC order.
func (s *Sim) Feed(e trace.Event) error { return s.k.Feed(e) }

// Import, Export and Join are merge: a context is a value, so the
// kernel's thread- and block-owned values need no copies.
func (*simLane) Import(dst *Ctx, src Ctx) { *dst = merge(*dst, src) }
func (*simLane) Export(v, t Ctx) Ctx      { return merge(v, t) }
func (*simLane) Join(a, b Ctx) Ctx        { return merge(a, b) }

// Bind folds the epoch state into the active dependence context.
func (*simLane) Bind(t *Thread[Ctx]) {
	t.Active = merge(merge(t.Active, t.Pending), t.EpochMax)
	t.Pending, t.EpochMax = zeroCtx, zeroCtx
}

// Clear drops the thread's dependences at a new strand.
func (*simLane) Clear(t *Thread[Ctx]) {
	t.Active, t.Pending, t.EpochMax = zeroCtx, zeroCtx, zeroCtx
}

// EpochMark counts syncs and reports barriers and syncs to the probe.
func (l *simLane) EpochMark(e trace.Event, t *Thread[Ctx]) {
	sync := e.Kind == trace.PersistSync
	if sync {
		l.res.Syncs++
	}
	if s := l.s; s.probe != nil {
		s.probe.EpochMark(e.TID, s.k.events-1, t.Epoch, sync)
	}
}

// StrandMark reports a new strand to the probe.
func (l *simLane) StrandMark(e trace.Event, t *Thread[Ctx]) {
	if s := l.s; s.probe != nil {
		s.probe.StrandMark(e.TID, s.k.events-1, t.Strand)
	}
}

// WorkMark counts completed work items, attributing critical-path
// growth to them with Params.TrackWorkPath, and reports brackets to
// the probe.
func (l *simLane) WorkMark(e trace.Event) {
	begin := e.Kind == trace.BeginWork
	if !begin {
		l.res.WorkItems++
		if l.params.TrackWorkPath {
			l.res.WorkPathDeltas = append(l.res.WorkPathDeltas, l.res.CriticalPath-l.lastWorkPath)
			l.lastWorkPath = l.res.CriticalPath
		}
	}
	if s := l.s; s.probe != nil {
		s.probe.WorkMark(e.TID, s.k.events-1, e.Val, begin)
	}
}

// Persist handles stores and RMWs to the persistent space. Each atomic
// block fragment of the access is one persist operation; it coalesces
// with the open persist of its atomic block when every dependence not
// already part of that open persist is strictly older, else it is
// placed at a new level.
func (l *simLane) Persist(e trace.Event, t *Thread[Ctx], blocks []*Block[Ctx]) Ctx {
	s, res, p := l.s, &l.res, &l.params
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
	firstA, lastA := memory.BlockSpan(e.Addr, int(e.Size), p.AtomicGranularity)
	placed := zeroCtx
	for ab := firstA; ab <= lastA; ab++ {
		ae := &s.atoms.at(ab)[l.lane]
		res.Persists++
		open, isOpen := *ae, ae.lvl > 0
		stillBuffered := isOpen &&
			(p.CoalesceWindow == 0 || res.Placed-(open.id+1) <= p.CoalesceWindow)
		var lvl, id int64
		if !p.NoCoalescing && stillBuffered && dep.Excluding(ab) < open.lvl {
			// Coalesce: the write joins the open persist of this atomic
			// block; every other dependence persists strictly earlier.
			lvl, id = open.lvl, open.id
			res.Coalesced++
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
			res.Placed++
			id = res.Placed - 1
			*ae = openPersist{lvl: lvl, id: id}
			res.CriticalPath = max(res.CriticalPath, lvl)
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
	if s.k.lanes[l.lane].spec.Immediate {
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
	if err := s.replay(tr); err != nil {
		return Result{}, err
	}
	return s.Result(), nil
}

// SimulateAll runs one trace through every model in Models with shared
// granularity parameters (base.Model is ignored), returning results in
// Models order. One pooled simulator walks the trace once, with one
// lane per model: each event is validated and its tracking blocks are
// found once, then every model applies it. An invalid event fails
// SimulateAll with the error Simulate returns for it under any model.
func SimulateAll(tr *trace.Trace, base Params) ([]Result, error) {
	s, err := acquireAll(base)
	if err != nil {
		return nil, err
	}
	defer simPool.Put(s)
	if err := s.replay(tr); err != nil {
		return nil, err
	}
	return s.results(), nil
}

// SimulateAllLive is SimulateAll over a live execution instead of a
// stored trace: run emits the execution's events into the sink it is
// given, the pooled all-model simulator, and no trace is kept. It
// returns run's error, else the first invalid event's, else the
// results in Models order.
func SimulateAllLive(base Params, run func(trace.Sink) error) ([]Result, error) {
	s, err := acquireAll(base)
	if err != nil {
		return nil, err
	}
	defer simPool.Put(s)
	if err := run(s); err != nil {
		return nil, err
	}
	if s.err != nil {
		return nil, s.err
	}
	return s.results(), nil
}

// acquireAll returns a pooled simulator reset to one lane per model in
// Models under base.
func acquireAll(base Params) (*Sim, error) {
	s := simPool.Get().(*Sim)
	base.Model = Models[0] // ignored, but reset validates it
	if err := s.reset(base, Models); err != nil {
		simPool.Put(s)
		return nil, err
	}
	return s, nil
}

// results returns every lane's result, in lane order.
func (s *Sim) results() []Result {
	out := make([]Result, len(s.lanes))
	for i := range out {
		out[i] = s.result(i)
	}
	return out
}

// replay feeds every event of tr to s.
func (s *Sim) replay(tr *trace.Trace) error {
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			if err := s.k.Feed(c.Event(i)); err != nil {
				return err
			}
		}
	}
	return nil
}
