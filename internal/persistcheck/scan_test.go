package persistcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/trace"
)

// Reference passes for the differential tests (diff_test.go): plain
// scans that test every publication and every order-after region
// against every event, find persists by walking the trace, and walk the
// whole trace for each thread's next persist after an annotation.
// scanCheck runs them in check's order; its Report must equal check's.

// scanIndex maps trace positions to persist nodes.
type scanIndex struct {
	nodeOf []graph.NodeID
	*graph.Reach
}

func scanCheck(tr *trace.Trace, g *graph.Graph, ann Annotations, cfg Config) *Report {
	p := g.Params
	r := &Report{Model: p.Model, Events: tr.Len(), Persists: g.Len(), Counts: map[Kind]int{}}
	idx := &scanIndex{nodeOf: make([]graph.NodeID, tr.Len()), Reach: graph.NewReach(g)}
	for i := range idx.nodeOf {
		idx.nodeOf[i] = -1
	}
	for _, n := range g.Nodes {
		idx.nodeOf[n.Event.Seq] = n.ID
	}
	scanPublications(tr, g, idx, ann, cfg, r)
	scanEscapes(tr, g, idx, p, ann, cfg, r)
	checkEpochRaces(tr, g, &graphIndex{Reach: idx.Reach}, p, cfg, r)
	scanBarriers(tr, p, g.Barriers, cfg, r)
	checkUnprotected(g, ann, cfg, r)
	return r
}

func scanPublications(tr *trace.Trace, g *graph.Graph, idx *scanIndex, ann Annotations, cfg Config, r *Report) {
	if len(ann.Pubs) == 0 {
		return
	}
	pubs := make([]*pubState, len(ann.Pubs))
	for i, pub := range ann.Pubs {
		pubs[i] = &pubState{pub: pub, byThread: make(map[int32][]graph.NodeID)}
	}
	for e := range tr.All() {
		if !e.IsPersist() {
			continue
		}
		node := idx.nodeOf[e.Seq]
		for _, ps := range pubs {
			pub := ps.pub
			if e.Addr >= pub.Word && e.Addr < pub.Word+wordBytes {
				ps.publish(&e, node, g, idx.Reach, cfg, r)
				continue
			}
			if ps.dead {
				continue
			}
			for xi, x := range pub.Data {
				if !x.Contains(e.Addr, e.Size) {
					continue
				}
				switch {
				case pub.ValueCovers:
					if xi == 0 {
						off := uint64(e.Addr - x.Addr)
						ps.valPending = append(ps.valPending, valEntry{node: node, end: off + uint64(e.Size)})
					}
				case pub.AllThreads:
					ps.shared = append(ps.shared, node)
				default:
					ps.byThread[e.TID] = append(ps.byThread[e.TID], node)
				}
				break
			}
		}
	}
}

// scanObligation is an obligation whose settled flag a NewStrand
// clears.
type scanObligation struct {
	src      graph.NodeID
	loadSeq  uint64
	settled  bool
	reported bool
}

func scanEscapes(tr *trace.Trace, g *graph.Graph, idx *scanIndex, p core.Params, ann Annotations, cfg Config, r *Report) {
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
	obl := make(map[int32][]scanObligation)
	get := func(tid int32) []scanObligation {
		o := obl[tid]
		if o == nil {
			o = make([]scanObligation, len(ann.OrderAfter))
			for i := range o {
				o[i].src = -1
			}
			obl[tid] = o
		}
		return o
	}
	for e := range tr.All() {
		switch {
		case e.Kind == trace.NewStrand:
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
				if !regionCovers(ann.OrderAfter[i], &e) {
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
			for i, reg := range ann.OrderAfter {
				if overlaps(reg, &e) {
					lastWriter[i] = node
				}
			}
		case e.Kind.HasLoadSemantics():
			o := get(e.TID)
			for i, reg := range ann.OrderAfter {
				if !overlaps(reg, &e) {
					continue
				}
				if w := lastWriter[i]; w >= 0 && (o[i].src != w || o[i].reported) {
					o[i] = scanObligation{src: w, loadSeq: e.Seq}
				}
			}
		}
	}
}

func scanBarriers(tr *trace.Trace, p core.Params, barriers []graph.BarrierInfo, cfg Config, r *Report) {
	if p.Model == core.Strict {
		r.skip("redundant-barrier lint: annotations are free no-ops under strict persistency")
		return
	}
	findings := make([]Finding, 0, 8)
	pendingByTID := make(map[int32][]int)
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

// ScanCheck exposes scanCheck to the external differential tests.
var ScanCheck = scanCheck
