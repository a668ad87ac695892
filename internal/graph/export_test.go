package graph

// The reference builder, its graph comparison and the reachability
// property check, exposed to the external graph_test package, whose KV
// fixtures import packages that import graph.
var (
	RefBuild         = refBuild
	RequireSameGraph = requireSameGraph
	CheckReach       = checkReach
)
