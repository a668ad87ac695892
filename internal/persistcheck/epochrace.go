package persistcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/trace"
)

// Epoch-race analysis. core.DetectEpochRaces replays the trace through
// the epoch-persistency state machine and reports conflicting accesses
// whose epochs leave persists unordered (§5.2). That detector works on
// dependence-level summaries; here each reported race is strengthened
// into a checker finding by extracting a concrete witness pair: two
// CONFLICTING persists — one from each racing epoch, touching the same
// tracking line — with no path between them in the model's constraint
// graph. The SC trace orders every pair (it is a total order), so a
// witness pair certifies an SC-divergent crash state: the down-closure
// of the later persist is a valid cut under the model that excludes the
// earlier one, leaving the line's words from two different SC moments.
//
// The conflict requirement is what separates a hazard from the
// concurrency relaxed persistency is FOR. Racing epochs leave plenty of
// persists mutually unordered by design — 2LC's slot-data persists from
// different threads are the textbook case — and those reorderings are
// invisible to recovery exactly when the persists touch unrelated
// state. Strong persist atomicity serializes same-word persists
// (Atomicity edges), so the recovery-observable divergence a race can
// produce lives in distinct words sharing a line: torn-looking records,
// half-updated neighbors, checksum-visible mixes of two SC moments.
// Races with no such witness are dropped rather than reported.
//
// The analysis applies to the epoch models only: strict persistency
// orders all persists with the SC order, and strand persistency orders
// persists only through explicit intra-strand annotations, so
// cross-strand interleavings are by design, not races.
func checkEpochRaces(tr *trace.Trace, g *graph.Graph, idx *graphIndex, p core.Params, cfg Config, r *Report) {
	switch p.Model {
	case core.Epoch, core.EpochTSO:
	default:
		r.skip("epoch-race detection: persist-epoch races are defined for the epoch models, not %s", p.Model)
		return
	}
	rr, err := core.DetectEpochRaces(tr, core.RaceConfig{
		TrackingGranularity: p.TrackingGranularity,
		Limit:               4 * cfg.limit(),
	})
	if err != nil {
		r.skip("epoch-race detection failed: %v", err)
		return
	}
	if rr.Total == 0 {
		return
	}

	// Persist nodes per (thread, epoch), with the same epoch indexing as
	// the detector (every annotation kind bumps).
	type epochKey struct {
		tid   int32
		epoch int
	}
	epochOf := make(map[int32]int)
	persists := make(map[epochKey][]graph.NodeID)
	node := graph.NodeID(0) // ids ascend in trace order
	for e := range tr.All() {
		if e.Kind.IsAnnotation() {
			epochOf[e.TID]++
			continue
		}
		if e.IsPersist() {
			k := epochKey{e.TID, epochOf[e.TID]}
			persists[k] = append(persists[k], node)
			node++
		}
	}

	// Conflicts are judged at cache-line granularity (or the model's
	// tracking granularity when coarser): the line is the unit whose
	// words recovery-side invariants — record checksums, block tags,
	// value pairs — read together.
	line := p.TrackingGranularity
	if line < lineBytes {
		line = lineBytes
	}

	type racePair struct {
		a, b epochKey
	}
	seen := make(map[racePair]bool)
	for _, race := range rr.Races {
		pair := racePair{
			a: epochKey{race.FirstTID, race.FirstEpoch},
			b: epochKey{race.SecondTID, race.SecondEpoch},
		}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		// Find an unordered CONFLICTING persist pair across the two
		// epochs: same tracking line, no graph path. Node ids are in
		// trace order, so min/max gives the SC orientation. Same-word
		// pairs are pre-ordered by atomicity edges, so surviving
		// witnesses are false-sharing neighbors. Only path queries count
		// toward the probe cap; the line filter is cheap.
		wa, wb := graph.NodeID(-1), graph.NodeID(-1)
		probes := 0
	search:
		for _, a := range persists[pair.a] {
			for _, b := range persists[pair.b] {
				if !sameLine(g.Nodes[a].Event, g.Nodes[b].Event, line) {
					continue
				}
				if probes++; probes > 128 {
					break search
				}
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				if !idx.HasPath(lo, hi) {
					wa, wb = lo, hi
					break search
				}
			}
		}
		if wa < 0 {
			continue
		}
		ae, be := g.Nodes[wa].Event, g.Nodes[wb].Event
		r.addHazard(Finding{
			Kind:     EpochRace,
			Severity: Hazard,
			Msg: fmt.Sprintf("persist-epoch race on %#x (t%d/e%d vs t%d/e%d): persists %s and %s are unordered under %s",
				uint64(race.Addr), race.FirstTID, race.FirstEpoch, race.SecondTID, race.SecondEpoch,
				fmtPersist(ae), fmtPersist(be), p.Model),
			Site:     cfg.site(be.Addr),
			TID:      be.TID,
			Seq:      be.Seq,
			WitnessA: wa,
			WitnessB: wb,
		}, idx.Reach, cfg)
	}
	if rr.Total > len(rr.Races) {
		r.skip("epoch-race detection: %d additional racing conflict pairs beyond the example cap were not examined", rr.Total-len(rr.Races))
	}
}

// lineBytes is the persist-atomicity line used to judge whether two
// racing persists conflict.
const lineBytes = 64

// sameLine reports whether two persists touch a common tracking line.
func sameLine(a, b trace.Event, line uint64) bool {
	af, al := memory.BlockSpan(a.Addr, int(a.Size), line)
	bf, bl := memory.BlockSpan(b.Addr, int(b.Size), line)
	return af <= bl && bf <= al
}
