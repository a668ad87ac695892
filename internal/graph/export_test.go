package graph

// The reference builder and its graph comparison, exposed to the
// external graph_test package, whose KV fixtures import packages that
// import graph.
var (
	RefBuild         = refBuild
	RequireSameGraph = requireSameGraph
)
