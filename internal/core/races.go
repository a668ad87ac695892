package core

import (
	"fmt"
	"sync"

	"repro/internal/memory"
	"repro/internal/trace"
)

// Persist-epoch race detection (§5.2): "We define a persist-epoch race
// as persist epochs from two or more threads that include memory
// accesses that race (to volatile or persistent memory), including
// synchronization races, and at least two epochs include persist
// operations." Races are legal — the paper's "Racing Epochs"
// configuration introduces them deliberately to buy concurrency — but
// they are exactly where epoch persistency's "astonishing" orderings
// live, so software wants a detector for them.
//
// The detector replays the trace through the epoch-persistency state
// machine and flags conflicts that actually leave persists unordered
// (not merely syntactic conflicts, which also occur in properly
// barrier-synchronized code):
//
//   - receiver-side: a conflicting access imports persist-ordering
//     context that the receiving thread has not yet bound (it will bind
//     only at the next barrier), while the receiving epoch itself
//     persists — those persists race with the imported ones;
//   - exporter-side: a store exports while its epoch holds persists that
//     are not yet bound into the thread's exported context (they sit in
//     epochMax until the next barrier) — a conflicting reader's
//     persisting epoch races with them.
//
// It is a detector, not a verifier: contexts summarize dependence
// levels, so exotic chains can in principle over- or under-flag; the
// queue workloads and tests pin the behaviors that matter.

// Race describes one detected persist-epoch race.
type Race struct {
	// First/Second are the trace sequence numbers of the conflicting
	// accesses (First earlier).
	First, Second uint64
	// Addr is the conflicting address.
	Addr memory.Addr
	// FirstTID/SecondTID are the racing threads.
	FirstTID, SecondTID int32
	// FirstEpoch/SecondEpoch are per-thread epoch indexes.
	FirstEpoch, SecondEpoch int
}

// String renders the race for reports.
func (r Race) String() string {
	return fmt.Sprintf("persist-epoch race on %#x: t%d/e%d (#%d) vs t%d/e%d (#%d)",
		uint64(r.Addr), r.FirstTID, r.FirstEpoch, r.First, r.SecondTID, r.SecondEpoch, r.Second)
}

// RaceReport summarizes detection over a trace.
type RaceReport struct {
	// Races holds up to Limit examples.
	Races []Race
	// Total counts all racing conflict pairs (may exceed len(Races)).
	Total int
	// Epochs counts persist epochs examined.
	Epochs int
}

// RaceConfig parameterizes detection.
type RaceConfig struct {
	// TrackingGranularity for conflicts; 0 means 8.
	TrackingGranularity uint64
	// Limit caps stored examples; 0 means 16.
	Limit int
}

// exportMark remembers the last conflicting exporter of a block; has
// is false until there is one.
type exportMark struct {
	seq      uint64
	epoch    int
	tid      int32
	residual bool // exporter's epoch held unbound persists at export
	has      bool
}

// blockMarks is a tracking block's last store and last load, as
// potential exporters.
type blockMarks struct{ write, read exportMark }

// raceState is DetectEpochRaces's working state, kept across calls by
// racePool: per-thread epoch counters and per-epoch persist flags,
// indexed by TID and epoch, and the per-block marks in one-lane
// tables like the kernel's, one per address space.
type raceState struct {
	marksV, marksP table[blockMarks]
	epochOf        []int
	persists       [][]bool
}

var racePool = sync.Pool{New: func() any { return new(raceState) }}

// marks returns block b's marks.
func (r *raceState) marks(b memory.BlockID) *blockMarks {
	if b >= r.marksP.base {
		return &r.marksP.at(b)[0]
	}
	return &r.marksV.at(b)[0]
}

// thread returns tid's epoch counter, growing the table on first sight
// of tid (which Validate bounds).
func (r *raceState) thread(tid int32) *int {
	for int(tid) >= len(r.epochOf) {
		r.epochOf = append(r.epochOf, 0)
		r.persists = append(r.persists, nil)
	}
	return &r.epochOf[tid]
}

// persisted reports whether thread tid's epoch holds a persist.
func (r *raceState) persisted(tid int32, epoch int) bool {
	p := r.persists[tid]
	return epoch < len(p) && p[epoch]
}

// isEpochBoundary reports whether e starts a new per-thread epoch for
// the detector: barriers, syncs and new strands all do.
func isEpochBoundary(e trace.Event) bool {
	return e.Kind == trace.PersistBarrier || e.Kind == trace.PersistSync || e.Kind == trace.NewStrand
}

// DetectEpochRaces scans the trace for persist-epoch races under epoch
// persistency.
func DetectEpochRaces(tr *trace.Trace, cfg RaceConfig) (RaceReport, error) {
	if cfg.TrackingGranularity == 0 {
		cfg.TrackingGranularity = memory.WordSize
	}
	if !memory.IsPowerOfTwo(cfg.TrackingGranularity) {
		return RaceReport{}, fmt.Errorf("core: bad tracking granularity %d", cfg.TrackingGranularity)
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 16
	}
	rs := racePool.Get().(*raceState)
	defer racePool.Put(rs)
	rs.epochOf, rs.persists = rs.epochOf[:0], rs.persists[:0]

	// Pass 1: validate every event (pass 2 replays them unvalidated)
	// and find which (thread, epoch) pairs contain persists.
	var report RaceReport
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			e := c.Event(i)
			if !e.Valid() {
				return RaceReport{}, e.Validate()
			}
			ep := rs.thread(e.TID)
			switch {
			case isEpochBoundary(e):
				*ep++
			case e.IsPersist():
				p := rs.persists[e.TID]
				for len(p) <= *ep {
					p = append(p, false)
				}
				if !p[*ep] {
					p[*ep] = true
					report.Epochs++
				}
				rs.persists[e.TID] = p
			}
		}
	}
	clear(rs.epochOf)

	// Pass 2: replay through the epoch state machine, checking each
	// conflicting access before feeding it to the simulator.
	// The simulator comes from the pool Simulate uses, so its block and
	// atom pages are reused across calls instead of allocated afresh.
	sim, err := AcquireSim(Params{Model: Epoch, TrackingGranularity: cfg.TrackingGranularity})
	if err != nil {
		return RaceReport{}, err
	}
	defer ReleaseSim(sim)
	rs.marksV.reset(memory.BlockOf(memory.VolatileBase, cfg.TrackingGranularity), blockMarks{}, 1)
	rs.marksP.reset(memory.BlockOf(memory.PersistentBase, cfg.TrackingGranularity), blockMarks{}, 1)
	note := func(m exportMark, e trace.Event) {
		report.Total++
		if len(report.Races) < cfg.Limit {
			report.Races = append(report.Races, Race{
				First: m.seq, Second: e.Seq, Addr: e.Addr,
				FirstTID: m.tid, SecondTID: e.TID,
				FirstEpoch: m.epoch, SecondEpoch: rs.epochOf[e.TID],
			})
		}
	}
	for _, c := range tr.Chunks() {
		for i := 0; i < c.Len(); i++ {
			e := c.Event(i)
			if isEpochBoundary(e) {
				rs.epochOf[e.TID]++
			}
			if !e.Kind.IsAccess() {
				if err := sim.k.step(e); err != nil {
					return RaceReport{}, err
				}
				continue
			}
			t := sim.k.thread(&sim.k.lanes[0], e.TID)
			epoch := rs.epochOf[e.TID]
			mePersists := rs.persisted(e.TID, epoch)
			first, last := memory.BlockSpan(e.Addr, int(e.Size), cfg.TrackingGranularity)
			check := func(m exportMark, incoming Ctx) {
				if m.tid == e.TID || !mePersists || !rs.persisted(m.tid, m.epoch) {
					return
				}
				// Receiver-side: imported context not yet bound, this
				// epoch persists, and the exporter's epoch persisted.
				// Exporter-side: the exporter left unbound persists
				// behind.
				if incoming.Lvl > t.Active.Lvl || m.residual {
					note(m, e)
				}
			}
			for b := first; b <= last; b++ {
				bs, bm := &sim.k.block(b)[0], rs.marks(b)
				// Conflict with the last store (store→load or
				// store→store).
				if bm.write.has {
					check(bm.write, bs.Writer)
				}
				// Load-before-store conflict.
				if bm.read.has && e.Kind.HasStoreSemantics() {
					check(bm.read, bs.Reader)
				}
			}
			// Record this access as the blocks' latest potential
			// exporter.
			mark := exportMark{seq: e.Seq, epoch: epoch, tid: e.TID, residual: t.EpochMax.Lvl > 0, has: true}
			for b := first; b <= last; b++ {
				bm := rs.marks(b)
				if e.Kind.HasStoreSemantics() {
					bm.write = mark
					bm.read.has = false
				} else {
					bm.read = mark
				}
			}
			if err := sim.k.step(e); err != nil {
				return RaceReport{}, err
			}
		}
	}
	return report, nil
}
