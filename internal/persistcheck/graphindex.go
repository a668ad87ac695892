package persistcheck

import "repro/internal/graph"

// graphIndex is what the analyses share over one check: the graph's
// reachability queries (graph.Reach) and the address index over the
// annotations (addrIndex). Persist node ids ascend in trace order, so a
// pass that walks the trace numbers persists as it meets them.
type graphIndex struct {
	*graph.Reach
	addr *addrIndex
}
