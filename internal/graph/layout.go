package graph

import "fmt"

// Layout bundles the memory-layout choices made at graph load time:
// which vertex reordering to apply and whether to delta-varint compress
// the adjacency. It is the single knob cmd/graphctd, cmd/bench and the
// script runtime expose, so the heuristics live here rather than in each
// front end.

// ReorderKind selects a vertex relabeling strategy.
type ReorderKind int

const (
	// ReorderNone keeps ingest order.
	ReorderNone ReorderKind = iota
	// ReorderDegree relabels degree-descending (hubs first) — the default
	// win on scale-free graphs, see DegreePerm.
	ReorderDegree
	// ReorderBFS relabels in Cuthill–McKee-style frontier order, see
	// BFSPerm.
	ReorderBFS
)

func (k ReorderKind) String() string {
	switch k {
	case ReorderDegree:
		return "degree"
	case ReorderBFS:
		return "bfs"
	default:
		return "none"
	}
}

// ParseReorder parses a -reorder flag value.
func ParseReorder(s string) (ReorderKind, error) {
	switch s {
	case "", "none":
		return ReorderNone, nil
	case "degree":
		return ReorderDegree, nil
	case "bfs":
		return ReorderBFS, nil
	}
	return ReorderNone, fmt.Errorf("graph: unknown reorder %q (want degree, bfs or none)", s)
}

// CompactPolicy selects when the adjacency is stored delta-varint
// compressed.
type CompactPolicy int

const (
	// CompactAuto compacts when the raw neighbor storage exceeds the
	// layout's byte budget — small graphs keep the faster raw sweeps, big
	// ones trade decode cycles for a working set that fits closer to the
	// cache.
	CompactAuto CompactPolicy = iota
	// CompactOff never compresses.
	CompactOff
	// CompactOn always compresses (unweighted graphs only; weighted
	// graphs are indexed by CSR slot and stay raw).
	CompactOn
)

func (p CompactPolicy) String() string {
	switch p {
	case CompactOn:
		return "on"
	case CompactOff:
		return "off"
	default:
		return "auto"
	}
}

// ParseCompactPolicy parses a -compact flag value.
func ParseCompactPolicy(s string) (CompactPolicy, error) {
	switch s {
	case "", "auto":
		return CompactAuto, nil
	case "on", "true":
		return CompactOn, nil
	case "off", "false":
		return CompactOff, nil
	}
	return CompactAuto, fmt.Errorf("graph: unknown compact policy %q (want auto, on or off)", s)
}

// DefaultCompactBudget is the CompactAuto threshold on raw adjacency bytes:
// graphs whose neighbor ids alone outgrow this get compressed. 256 MiB
// marks the "working set past cache and heading for swap" regime on one
// analysis machine.
const DefaultCompactBudget = 256 << 20

// Layout is a load-time memory-layout configuration.
type Layout struct {
	Reorder ReorderKind
	Compact CompactPolicy
	// CompactBudget overrides DefaultCompactBudget when > 0 (CompactAuto
	// only).
	CompactBudget int64
}

// shouldCompact applies the policy to one graph.
func (l Layout) shouldCompact(g *Graph) bool {
	if g.Weighted() || g.Compacted() {
		return false
	}
	switch l.Compact {
	case CompactOn:
		return true
	case CompactOff:
		return false
	}
	budget := l.CompactBudget
	if budget <= 0 {
		budget = DefaultCompactBudget
	}
	return g.AdjBytes() > budget
}

// Apply relabels and/or compacts g per the layout. It returns the laid-out
// graph and the inverse permutation mapping its vertex ids back to g's
// (nil when no reordering was applied, meaning ids are unchanged). Reorder
// always runs before Compact: sorted rows of a locality-ordered graph have
// the smallest gaps, so the varints compress best in that order.
func (l Layout) Apply(g *Graph) (*Graph, []int32, error) {
	var inv []int32
	switch l.Reorder {
	case ReorderDegree, ReorderBFS:
		if g.Compacted() {
			return nil, nil, fmt.Errorf("graph: layout reorder of an already-compact graph")
		}
		var perm []int32
		if l.Reorder == ReorderDegree {
			perm = DegreePerm(g)
		} else {
			perm = BFSPerm(g)
		}
		var err error
		g, inv, err = g.Relabel(perm)
		if err != nil {
			return nil, nil, err
		}
	}
	if l.shouldCompact(g) {
		g = g.Compact()
	}
	return g, inv, nil
}
