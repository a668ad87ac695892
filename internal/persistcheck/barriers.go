package persistcheck

import (
	"fmt"

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
// which names the annotation point in the structure's algorithm.
func checkBarriers(tr *trace.Trace, p core.Params, barriers []graph.BarrierInfo, cfg Config, r *Report) {
	if p.Model == core.Strict {
		r.skip("redundant-barrier lint: annotations are free no-ops under strict persistency")
		return
	}
	findings := make([]Finding, 0, 8)
	pendingByTID := make(map[int32][]int) // finding indexes awaiting a site
	bi := 0
	for e := range tr.All() {
		if e.IsPersist() {
			if pend := pendingByTID[e.TID]; len(pend) > 0 {
				site := cfg.site(e.Addr)
				for _, fi := range pend {
					findings[fi].Site = site
				}
				pendingByTID[e.TID] = pend[:0]
			}
			continue
		}
		if !e.Kind.IsAnnotation() {
			continue
		}
		info := barriers[bi]
		bi++
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
			pendingByTID[e.TID] = append(pendingByTID[e.TID], len(findings)-1)
		}
	}
	r.Findings = append(r.Findings, findings...)
}
