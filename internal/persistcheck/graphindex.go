package persistcheck

import (
	"repro/internal/graph"
	"repro/internal/trace"
)

// graphIndex is what the analyses share over one trace-built graph:
// the map from trace events to persist nodes, and the graph's
// reachability queries (graph.Reach).
type graphIndex struct {
	// nodeOf maps a trace Seq to its persist node, -1 for non-persists.
	nodeOf []graph.NodeID
	*graph.Reach
}

func newGraphIndex(tr *trace.Trace, g *graph.Graph) *graphIndex {
	idx := &graphIndex{nodeOf: make([]graph.NodeID, tr.Len()), Reach: graph.NewReach(g)}
	for i := range idx.nodeOf {
		idx.nodeOf[i] = -1
	}
	for _, n := range g.Nodes {
		idx.nodeOf[n.Event.Seq] = n.ID
	}
	return idx
}
