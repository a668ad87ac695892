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
//
// The pass walks g.Nodes. For each persist it runs, in ascending
// publication order, the publications whose word or data extents the
// address index places at the persist's address; the exact tests
// (isWord, isData) decide.
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

func checkPublications(g *graph.Graph, idx *graphIndex, ann Annotations, cfg Config, r *Report) {
	if len(ann.Pubs) == 0 {
		return
	}
	pubs := make([]pubState, len(ann.Pubs))
	for i, pub := range ann.Pubs {
		pubs[i] = pubState{pub: pub, byThread: make(map[int32][]graph.NodeID)}
	}
	ax := idx.addr
	for _, n := range g.Nodes {
		e := &n.Event
		k := ax.seg(e.Addr)
		// A persist of a publication's word publishes, in ascending
		// publication order; it is never also that publication's data.
		for _, i := range ax.pubWords.at(k) {
			if ps := &pubs[i]; ps.isWord(e) {
				ps.publish(e, n.ID, g, idx.Reach, cfg, r)
			}
		}
		for _, i := range ax.pubData.at(k) {
			ps := &pubs[i]
			if ps.dead || ps.isWord(e) || !ps.isData(e) {
				continue
			}
			switch {
			case ps.pub.ValueCovers:
				off := uint64(e.Addr - ps.pub.Data[0].Addr)
				ps.valPending = append(ps.valPending, valEntry{node: n.ID, end: off + uint64(e.Size)})
			case ps.pub.AllThreads:
				ps.shared = append(ps.shared, n.ID)
			default:
				ps.byThread[e.TID] = append(ps.byThread[e.TID], n.ID)
			}
		}
	}
}

// isWord reports whether the persist starts in the publication word.
func (ps *pubState) isWord(e *trace.Event) bool {
	return e.Addr >= ps.pub.Word && e.Addr < ps.pub.Word+wordBytes
}

// isData reports whether the persist is data the publication covers:
// inside Data[0] for a ValueCovers word (offsets index that extent),
// inside any extent otherwise.
func (ps *pubState) isData(e *trace.Event) bool {
	data := ps.pub.Data
	if ps.pub.ValueCovers {
		data = data[:min(len(data), 1)]
	}
	for _, x := range data {
		if x.Contains(e.Addr, e.Size) {
			return true
		}
	}
	return false
}

const wordBytes = 8

// publish handles one persist of the publication word: every data
// persist it covers must be an ancestor in the model graph.
func (ps *pubState) publish(e *trace.Event, node graph.NodeID, g *graph.Graph, reach *graph.Reach, cfg Config, r *Report) {
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
		reach.Mark(node, pend[0])
		for _, d := range pend {
			if !reach.Marked(d) {
				ps.report(g, reach, cfg, r, d, node, e)
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
	reach.Mark(node, ps.valPending[0].node)
	kept := ps.valPending[:0]
	for _, ve := range ps.valPending {
		if ve.end > v {
			kept = append(kept, ve)
			continue
		}
		if !reach.Marked(ve.node) {
			ps.report(g, reach, cfg, r, ve.node, node, e)
		}
	}
	ps.valPending = kept
}

func (ps *pubState) report(g *graph.Graph, reach *graph.Reach, cfg Config, r *Report, d, p graph.NodeID, e *trace.Event) {
	de := g.Nodes[d].Event
	r.addHazard(Finding{
		Kind:     UnpersistedPublication,
		Severity: Hazard,
		Msg: fmt.Sprintf("%q persist %s publishes data persist %s without an ordering path",
			ps.pub.Name, fmtPersist(*e), fmtPersist(de)),
		Site:     cfg.site(de.Addr),
		TID:      e.TID,
		Seq:      e.Seq,
		WitnessA: d,
		WitnessB: p,
	}, reach, cfg)
}
