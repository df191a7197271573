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
