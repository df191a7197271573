package graph

// Edge is one directed arc (or one undirected edge, orientation ignored) in
// an edge list awaiting ingest.
type Edge struct {
	U, V int32
}

// WeightedEdge is an Edge with an integer weight, as read from DIMACS input.
type WeightedEdge struct {
	U, V, W int32
}

// MaxVertex returns 1 + the largest vertex id referenced by the edge list,
// i.e. the minimum vertex count that can hold it. Empty lists give 0.
func MaxVertex(edges []Edge) int {
	max := int32(-1)
	for _, e := range edges {
		if e.U > max {
			max = e.U
		}
		if e.V > max {
			max = e.V
		}
	}
	return int(max) + 1
}
