package graph

// ReorderKind selects a vertex relabeling strategy.
type ReorderKind int

const (
	// ReorderNone keeps ingest order.
	ReorderNone ReorderKind = iota
	// ReorderDegree relabels degree-descending (hubs first) — the default
	// win on scale-free graphs, see DegreePerm.
	ReorderDegree
)

func (k ReorderKind) String() string {
	if k == ReorderDegree {
		return "degree"
	}
	return "none"
}

// Layout is a load-time vertex order. cmd/graphctd loads every graph file
// in degree order; the script runtime's reorder command applies the same
// relabeling. The adjacency itself is always raw sorted CSR.
type Layout struct {
	Reorder ReorderKind
}

// Apply relabels g per the layout. It returns the laid-out graph and the
// inverse permutation mapping its vertex ids back to g's (nil when no
// reordering was applied, meaning ids are unchanged).
func (l Layout) Apply(g *Graph) (*Graph, []int32, error) {
	if l.Reorder != ReorderDegree {
		return g, nil, nil
	}
	return g.Relabel(DegreePerm(g))
}
