package graph

// The reference builder, its graph comparison, the reachability and
// cover-label checks, the transitive reduction's edge count and the
// random and PSO trace generators, exposed
// to the external graph_test package, whose KV fixtures import
// packages that import graph.
var (
	RefBuild         = refBuild
	RequireSameGraph = requireSameGraph
	CheckReach       = checkReach
	CheckLabels      = checkLabels
	ReductionEdges   = reductionEdges
	RandomTrace      = randomTrace
	PSOTrace         = psoTrace
)
