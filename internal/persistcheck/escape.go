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
// The pass walks the trace, since loads and NewStrand matter as well
// as persists. A persist is tested against its thread's obligations
// for the regions whose contract can cover it (the unscoped regions and
// the scope index's hits, in ascending order), and a load or persist
// against the regions the word index places at its address.
// Obligations live in a slice indexed by thread id, allocated at a
// thread's first load of a written region.
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
	// settled is 1 + the thread's strand count when a persist confirmed
	// the path: while no NewStrand has invalidated it since, skip
	// further path queries. 0 means unsettled.
	settled uint32
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
	regs, ax := ann.OrderAfter, idx.addr
	lastWriter := make([]graph.NodeID, len(regs))
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	// obl holds each thread's obligations, one per region, from the
	// thread's first load of a region with a persist behind it; nil
	// before that. strands counts each such thread's NewStrands since.
	var obl [][]obligation
	var strands []uint32
	get := func(tid int32) []obligation {
		if int(tid) >= len(obl) {
			obl = append(obl, make([][]obligation, int(tid)+1-len(obl))...)
			strands = append(strands, make([]uint32, int(tid)+1-len(strands))...)
		}
		o := obl[tid]
		if o == nil {
			o = make([]obligation, len(regs))
			for i := range o {
				o[i].src = -1
			}
			obl[tid] = o
		}
		return o
	}
	node := graph.NodeID(0) // the next persist's node: ids ascend in trace order
	for e := range tr.All() {
		var o []obligation
		if int(e.TID) < len(obl) {
			o = obl[e.TID]
		}
		switch {
		case e.Kind == trace.NewStrand:
			// The strand discards the thread's dependence state; any
			// satisfied obligation must be re-proven (the §5.3 recipe
			// re-reads the region and re-binds).
			if o != nil {
				strands[e.TID]++
			}
		case e.IsPersist():
			k := ax.seg(e.Addr)
			if o != nil {
				// The regions whose contract can cover the persist, in
				// ascending order: the unscoped ones and the scope hits.
				us, sc := ax.unscoped, ax.regScopes.at(k)
				for len(us) > 0 || len(sc) > 0 {
					var i int32
					if len(sc) == 0 || len(us) > 0 && us[0] < sc[0] {
						i, us = us[0], us[1:]
					} else {
						i, sc = sc[0], sc[1:]
					}
					if o[i].src < 0 || o[i].settled == strands[e.TID]+1 || o[i].reported {
						continue
					}
					if !regionCovers(regs[i], &e) {
						continue
					}
					if idx.HasPath(o[i].src, node) {
						o[i].settled = strands[e.TID] + 1
						continue
					}
					se := g.Nodes[o[i].src].Event
					r.addHazard(Finding{
						Kind:     UnboundRead,
						Severity: Hazard,
						Msg: fmt.Sprintf("persist %s is not ordered after %q persist %s observed by t%d's load at #%d",
							fmtPersist(e), regs[i].Name, fmtPersist(se), e.TID, o[i].loadSeq),
						Site:     cfg.site(e.Addr),
						TID:      e.TID,
						Seq:      e.Seq,
						WitnessA: o[i].src,
						WitnessB: node,
					}, idx.Reach, cfg)
					o[i].reported = true
				}
			}
			// Track the regions' latest persist (after the obligation
			// checks: a persist does not obligate its own thread).
			for _, i := range ax.regWords.at(k) {
				if overlaps(regs[i], &e) {
					lastWriter[i] = node
				}
			}
			node++
		case e.Kind.HasLoadSemantics():
			for _, i := range ax.regWords.at(ax.seg(e.Addr)) {
				if !overlaps(regs[i], &e) {
					continue
				}
				if w := lastWriter[i]; w >= 0 {
					if o == nil {
						o = get(e.TID)
					}
					if o[i].src != w || o[i].reported {
						o[i] = obligation{src: w, loadSeq: e.Seq}
					}
				}
			}
		}
	}
}

// overlaps reports whether the access shares a byte with the region.
func overlaps(reg Region, e *trace.Event) bool {
	return e.Addr < reg.Addr+memory.Addr(reg.Size) && e.Addr+memory.Addr(e.Size) > reg.Addr
}

// regionCovers reports whether the persist falls under the region's
// contract: inside one of Covers, or anywhere when Covers is empty.
func regionCovers(reg Region, e *trace.Event) bool {
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
