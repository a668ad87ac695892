package graph

// The reference builder, its graph comparison, the reachability and
// cover-label checks, the label width bound and the random and PSO
// trace generators, exposed to the external graph_test package, whose
// KV fixtures import packages that import graph.
var (
	RefBuild         = refBuild
	RequireSameGraph = requireSameGraph
	CheckReach       = checkReach
	CheckLabels      = checkLabels
	RandomTrace      = randomTrace
	PSOTrace         = psoTrace
)

const MaxCoverThreads = maxCoverThreads
