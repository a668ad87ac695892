package persistcheck

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Redundant-barrier analysis. graph.Build records, for each annotation,
// whether it changed the builder's dependence state; an annotation that
// binds nothing induces no constraint edge, so removing it leaves the
// graph identical — the barrier is pure execution cost
// (§4.1's motivation: persist barriers are the stalls the relaxed
// models exist to avoid). Findings are Perf severity, not hazards:
// redundancy is model-relative (every barrier is trivially redundant
// under a model that ignores the annotation kind, as when running a
// strand-annotated workload under epoch persistency), and removing a
// barrier that is redundant under one model can of course break another.
//
// PersistSync annotations are never reported: under buffered strict
// persistency a sync has execution-timing semantics (it stalls until
// prior persists drain) that the constraint graph does not model, so
// "no new edge" does not mean "no effect".
//
// Attribution follows the telemetry convention: each finding carries
// the site label of the thread's next persist after the annotation,
// which names the annotation point in the structure's algorithm. The
// pass reads g.Barriers and, only with a SiteLabel, merges g.Nodes
// into it by Seq to find those persists; it never walks the trace.
func checkBarriers(g *graph.Graph, p core.Params, cfg Config, r *Report) {
	if p.Model == core.Strict {
		r.skip("redundant-barrier lint: annotations are free no-ops under strict persistency")
		return
	}
	findings := make([]Finding, 0, 8)
	// pending holds, per thread, the indexes of findings awaiting the
	// site of the thread's next persist; waiting counts them.
	var pending [][]int
	waiting := 0
	nodes := g.Nodes
	// settle hands each persist before seq its thread's pending site.
	settle := func(seq uint64) {
		for len(nodes) > 0 && nodes[0].Event.Seq < seq {
			if waiting == 0 {
				// Nothing waits: skip to seq in one search.
				nodes = nodes[sort.Search(len(nodes), func(i int) bool { return nodes[i].Event.Seq >= seq }):]
				return
			}
			e := &nodes[0].Event
			nodes = nodes[1:]
			if int(e.TID) >= len(pending) || len(pending[e.TID]) == 0 {
				continue
			}
			site := cfg.site(e.Addr)
			for _, fi := range pending[e.TID] {
				findings[fi].Site = site
			}
			waiting -= len(pending[e.TID])
			pending[e.TID] = pending[e.TID][:0]
		}
	}
	for _, info := range g.Barriers {
		if !info.Redundant || info.Kind == trace.PersistSync {
			continue
		}
		// A finding past the storage limit is only counted.
		if !r.keep(RedundantBarrier, cfg.limit()) {
			continue
		}
		what := "binds no new persist-order dependence"
		if info.Kind == trace.NewStrand {
			what = "clears no dependence state"
		}
		findings = append(findings, Finding{
			Kind:     RedundantBarrier,
			Severity: Perf,
			Msg: fmt.Sprintf("%s at #%d (t%d, epoch %d) %s under %s",
				info.Kind, info.Seq, info.TID, info.Epoch, what, p.Model),
			TID:      info.TID,
			Seq:      info.Seq,
			WitnessA: -1,
			WitnessB: -1,
		})
		if cfg.SiteLabel != nil {
			// Persists before this annotation settle earlier findings.
			settle(info.Seq)
			if int(info.TID) >= len(pending) {
				pending = append(pending, make([][]int, int(info.TID)+1-len(pending))...)
			}
			pending[info.TID] = append(pending[info.TID], len(findings)-1)
			waiting++
		}
	}
	settle(math.MaxUint64)
	r.Findings = append(r.Findings, findings...)
}
