package core

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/trace"
)

type epochKey struct {
	tid   int32
	epoch int
}

// mapMark remembers the last conflicting exporter of a block.
type mapMark struct {
	seq      uint64
	tid      int32
	epoch    int
	residual bool // exporter's epoch held unbound persists at export
}

// detectEpochRacesMaps is DetectEpochRaces as it was written before its
// per-thread and per-block state moved to slices and block tables: Go
// maps keyed by (thread, epoch), thread and block. It stays as the
// differential oracle for the production detector.
func detectEpochRacesMaps(tr *trace.Trace, cfg RaceConfig) (RaceReport, error) {
	if cfg.TrackingGranularity == 0 {
		cfg.TrackingGranularity = memory.WordSize
	}
	if !memory.IsPowerOfTwo(cfg.TrackingGranularity) {
		return RaceReport{}, fmt.Errorf("core: bad tracking granularity %d", cfg.TrackingGranularity)
	}
	if cfg.Limit <= 0 {
		cfg.Limit = 16
	}

	// Pass 1: which (thread, epoch) contain persists?
	persistsIn := make(map[epochKey]bool)
	epochOf := make(map[int32]int)
	bump := func(e trace.Event) bool {
		if e.Kind == trace.PersistBarrier || e.Kind == trace.PersistSync || e.Kind == trace.NewStrand {
			epochOf[e.TID]++
			return true
		}
		return false
	}
	for e := range tr.All() {
		if bump(e) {
			continue
		}
		if e.IsPersist() {
			persistsIn[epochKey{e.TID, epochOf[e.TID]}] = true
		}
	}
	report := RaceReport{Epochs: len(persistsIn)}

	// Pass 2: replay through the epoch state machine, checking each
	// conflicting access before feeding it to the simulator.
	// The simulator comes from the pool Simulate uses, so its block and
	// atom pages are reused across calls instead of allocated afresh.
	sim, err := AcquireSim(Params{Model: Epoch, TrackingGranularity: cfg.TrackingGranularity})
	if err != nil {
		return RaceReport{}, err
	}
	defer ReleaseSim(sim)
	type blockMarks struct {
		write, read mapMark
		hasW, hasR  bool
	}
	marks := make(map[memory.BlockID]*blockMarks)
	epochOf = make(map[int32]int)
	note := func(m mapMark, e trace.Event) {
		report.Total++
		if len(report.Races) < cfg.Limit {
			report.Races = append(report.Races, Race{
				First: m.seq, Second: e.Seq, Addr: e.Addr,
				FirstTID: m.tid, SecondTID: e.TID,
				FirstEpoch: m.epoch, SecondEpoch: epochOf[e.TID],
			})
		}
	}
	for e := range tr.All() {
		if bump(e) {
			if err := sim.Feed(e); err != nil {
				return RaceReport{}, err
			}
			continue
		}
		if !e.Kind.IsAccess() {
			if err := sim.Feed(e); err != nil {
				return RaceReport{}, err
			}
			continue
		}
		t := sim.k.thread(&sim.k.lanes[0], e.TID)
		me := epochKey{e.TID, epochOf[e.TID]}
		first, last := memory.BlockSpan(e.Addr, int(e.Size), cfg.TrackingGranularity)
		check := func(m mapMark, incoming Ctx, e trace.Event) {
			if m.tid == e.TID {
				return
			}
			// Receiver-side: imported context not yet bound, this epoch
			// persists, and the exporter's epoch persisted.
			receiverRaces := persistsIn[me] && incoming.Lvl > t.Active.Lvl && persistsIn[epochKey{m.tid, m.epoch}]
			// Exporter-side: the exporter left unbound persists behind.
			exporterRaces := persistsIn[me] && m.residual && persistsIn[epochKey{m.tid, m.epoch}]
			if receiverRaces || exporterRaces {
				note(m, e)
			}
		}
		for b := first; b <= last; b++ {
			bs := &sim.k.block(b)[0]
			bm := marks[b]
			if bm == nil {
				continue
			}
			// Conflict with the last store (store→load or store→store).
			if bm.hasW {
				check(bm.write, bs.Writer, e)
			}
			// Load-before-store conflict.
			if bm.hasR && e.Kind.HasStoreSemantics() {
				check(bm.read, bs.Reader, e)
			}
		}
		// Record this access as the blocks' latest potential exporter.
		mark := mapMark{seq: e.Seq, tid: e.TID, epoch: epochOf[e.TID], residual: t.EpochMax.Lvl > 0}
		for b := first; b <= last; b++ {
			bm := marks[b]
			if bm == nil {
				bm = &blockMarks{}
				marks[b] = bm
			}
			if e.Kind.HasStoreSemantics() {
				bm.write, bm.hasW = mark, true
				bm.hasR = false
			} else {
				bm.read, bm.hasR = mark, true
			}
		}
		if err := sim.Feed(e); err != nil {
			return RaceReport{}, err
		}
	}
	return report, nil
}
