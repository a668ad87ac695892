package persistcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/memory"
	"repro/internal/trace"
)

// Escape check (strand persistency only). An order-critical persistent
// word (annotated as an OrderAfter region: the queue tail, the journal
// checkpoint, the PSTM seal) carries §5.3's contract: "a persist strand
// begins by reading persisted memory locations after which new persists
// must be ordered", followed by a persist barrier. A thread that loads
// such a word and then acts on the value — reusing freed slots,
// overwriting retired records — imports the observed persist as a
// dependence; the recipe's barrier binds it. NewStrand discards the
// thread's dependence state, so a persist issued after NewStrand
// without re-running the read-then-barrier recipe escapes the contract:
// the model graph has no path from the observed region persist to the
// new persist, and a crash can expose the new persist alongside a stale
// region value (a stale checkpoint next to newer ring contents, a stale
// tail next to overwritten slots).
//
// The check runs only under strand persistency: under epoch models
// nothing discards imported dependences (they bind at the next barrier
// at the latest), and under strict persistency every load binds
// immediately.
type obligation struct {
	// src is the region persist the thread observed, -1 when none.
	src graph.NodeID
	// loadSeq is the observing load.
	loadSeq uint64
	// settled: a prior persist confirmed the path, and no NewStrand has
	// invalidated it since; skip further path queries.
	settled bool
	// reported: this obligation already produced a finding; stop.
	reported bool
}

func checkEscapes(tr *trace.Trace, g *graph.Graph, idx *graphIndex, p core.Params, ann Annotations, cfg Config, r *Report) {
	if len(ann.OrderAfter) == 0 {
		return
	}
	if p.Model != core.Strand {
		r.skip("escape check: §5.3's read-then-barrier contract is a strand-persistency discipline; not applicable under %s", p.Model)
		return
	}
	lastWriter := make([]graph.NodeID, len(ann.OrderAfter))
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	obl := make(map[int32][]obligation)
	get := func(tid int32) []obligation {
		o := obl[tid]
		if o == nil {
			o = make([]obligation, len(ann.OrderAfter))
			for i := range o {
				o[i].src = -1
			}
			obl[tid] = o
		}
		return o
	}
	overlaps := func(reg Region, e trace.Event) bool {
		return e.Addr < reg.Addr+memory.Addr(reg.Size) && e.Addr+memory.Addr(e.Size) > reg.Addr
	}
	for e := range tr.All() {
		switch {
		case e.Kind == trace.NewStrand:
			// The strand discards the thread's dependence state; any
			// satisfied obligation must be re-proven (the §5.3 recipe
			// re-reads the region and re-binds).
			for i := range get(e.TID) {
				get(e.TID)[i].settled = false
			}
		case e.IsPersist():
			node := idx.nodeOf[e.Seq]
			o := get(e.TID)
			for i := range o {
				if o[i].src < 0 || o[i].settled || o[i].reported {
					continue
				}
				if !regionCovers(ann.OrderAfter[i], e) {
					continue
				}
				if idx.HasPath(o[i].src, node) {
					o[i].settled = true
					continue
				}
				se := g.Nodes[o[i].src].Event
				r.addHazard(Finding{
					Kind:     UnboundRead,
					Severity: Hazard,
					Msg: fmt.Sprintf("persist %s is not ordered after %q persist %s observed by t%d's load at #%d",
						fmtPersist(e), ann.OrderAfter[i].Name, fmtPersist(se), e.TID, o[i].loadSeq),
					Site:     cfg.site(e.Addr),
					TID:      e.TID,
					Seq:      e.Seq,
					WitnessA: o[i].src,
					WitnessB: node,
				}, idx.Reach, cfg)
				o[i].reported = true
			}
			// Track the regions' latest persist (after the obligation
			// checks: a persist does not obligate its own thread).
			for i, reg := range ann.OrderAfter {
				if overlaps(reg, e) {
					lastWriter[i] = node
				}
			}
		case e.Kind.HasLoadSemantics():
			o := get(e.TID)
			for i, reg := range ann.OrderAfter {
				if !overlaps(reg, e) {
					continue
				}
				if w := lastWriter[i]; w >= 0 && (o[i].src != w || o[i].reported) {
					o[i] = obligation{src: w, loadSeq: e.Seq}
				}
			}
		}
	}
}

// regionCovers reports whether the persist falls under the region's
// contract: inside one of Covers, or anywhere when Covers is empty.
func regionCovers(reg Region, e trace.Event) bool {
	if len(reg.Covers) == 0 {
		return true
	}
	for _, x := range reg.Covers {
		if x.Contains(e.Addr, e.Size) {
			return true
		}
	}
	return false
}
