package graph

import "fmt"

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

// ParseReorder parses a -reorder flag value.
func ParseReorder(s string) (ReorderKind, error) {
	switch s {
	case "", "none":
		return ReorderNone, nil
	case "degree":
		return ReorderDegree, nil
	}
	return ReorderNone, fmt.Errorf("graph: unknown reorder %q (want degree or none)", s)
}

// Layout is the load-time vertex order: which reordering cmd/graphctd and
// the script runtime apply before serving a graph. The adjacency itself is
// always raw sorted CSR.
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
