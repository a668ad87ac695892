package persistcheck

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/trace"
)

// Unpersisted-publication lint. A publication persist (queue head,
// journal committed-head, PSTM seal) makes data reachable to recovery;
// if the model graph has no path from a published data persist to the
// publication persist, a crash can expose the publication without the
// payload — the classic missing data→head barrier of Algorithm 1
// line 8.
//
// Scope rules keep the lint exact on the in-tree structures:
//
//   - ValueCovers publications (queue head, journal commit) publish by
//     value: a persisted offset v covers every data persist to
//     Data[0]+idx with idx+size ≤ v, across all threads — which is how
//     a Two-Lock Concurrent head persist publishes other threads'
//     entries. The mapping from address back to monotonic offset is
//     only unique before the ring wraps (v ≤ extent size); at the first
//     wrapping publication the lint retires the word and notes it.
//   - plain publications (PSTM seal) publish the issuing thread's own
//     data persists since its previous publication persist to the same
//     word — the lock-serialized transaction pattern.
//   - AllThreads publications (PSTM arm, journal checkpoint) publish
//     every thread's pending data persists: the word's value summarizes
//     global state, so overwriting it must be ordered after everything
//     it supersedes. Covered persists leave the pool — coverage is
//     sticky through the word's persist-atomicity chain.
type pubState struct {
	pub Publication
	// dead is set once a ValueCovers word wraps.
	dead bool
	// pending data persists: all threads for ValueCovers (with extent
	// offsets), shared for AllThreads, per issuing thread otherwise.
	valPending []valEntry
	shared     []graph.NodeID
	byThread   map[int32][]graph.NodeID
}

type valEntry struct {
	node graph.NodeID
	end  uint64 // extent offset one past the persist's last byte
}

func checkPublications(tr *trace.Trace, g *graph.Graph, idx *graphIndex, ann Annotations, cfg Config, r *Report) {
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
				ps.publish(e, node, g, idx, cfg, r)
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

const wordBytes = 8

// publish handles one persist of the publication word: every data
// persist it covers must be an ancestor in the model graph.
func (ps *pubState) publish(e trace.Event, node graph.NodeID, g *graph.Graph, idx *graphIndex, cfg Config, r *Report) {
	pub := ps.pub
	if e.Val == 0 {
		// A zero persist retracts rather than publishes: it is the
		// initialization/unsealed state (queue head 0, journal
		// committed-head 0, PSTM done 0), making nothing reachable to
		// recovery. It also closes the retracted generation's
		// plain-publication scope — data persisted before the retraction
		// (setup-time initialization) belongs to it, not to the next real
		// publication. (A ValueCovers zero would cover nothing anyway,
		// and offsets are monotonic, so valPending stays.)
		ps.byThread[e.TID] = nil
		ps.shared = nil
		return
	}
	if !pub.ValueCovers {
		pend := ps.byThread[e.TID]
		if pub.AllThreads {
			pend = ps.shared
		}
		if len(pend) == 0 {
			return
		}
		// Pending nodes are in id order, so no walk below the oldest.
		idx.Mark(node, pend[0])
		for _, d := range pend {
			if !idx.Marked(d) {
				ps.report(g, idx, cfg, r, d, node, e)
			}
		}
		if pub.AllThreads {
			ps.shared = pend[:0]
		} else {
			ps.byThread[e.TID] = pend[:0]
		}
		return
	}
	if ps.dead {
		return
	}
	v := e.Val
	if v > pub.Data[0].Size {
		ps.dead = true
		ps.valPending = nil
		r.skip("publication %q wrapped (value %d > %d bytes); coverage lint retired from #%d",
			pub.Name, v, pub.Data[0].Size, e.Seq)
		return
	}
	if len(ps.valPending) == 0 {
		return
	}
	idx.Mark(node, ps.valPending[0].node)
	kept := ps.valPending[:0]
	for _, ve := range ps.valPending {
		if ve.end > v {
			kept = append(kept, ve)
			continue
		}
		if !idx.Marked(ve.node) {
			ps.report(g, idx, cfg, r, ve.node, node, e)
		}
	}
	ps.valPending = kept
}

func (ps *pubState) report(g *graph.Graph, idx *graphIndex, cfg Config, r *Report, d, p graph.NodeID, e trace.Event) {
	de := g.Nodes[d].Event
	r.addHazard(Finding{
		Kind:     UnpersistedPublication,
		Severity: Hazard,
		Msg: fmt.Sprintf("%q persist %s publishes data persist %s without an ordering path",
			ps.pub.Name, fmtPersist(e), fmtPersist(de)),
		Site:     cfg.site(de.Addr),
		TID:      e.TID,
		Seq:      e.Seq,
		WitnessA: d,
		WitnessB: p,
	}, idx.Reach, cfg)
}
