package core_test

import (
	"fmt"

	"graphct/internal/core"
	"graphct/internal/gen"
)

// ExampleToolkit walks the canonical GraphCT sequence: load, characterize,
// extract the largest component, rank, restore.
func ExampleToolkit() {
	g := gen.Disjoint(gen.Star(8), gen.Ring(4)) // a hub cluster and a cycle
	tk := core.New(g, core.WithSeed(1))

	fmt.Println("components:", len(tk.ComponentCensus()))
	tk.Save()
	tk.ExtractComponent(1)
	fmt.Println("largest:", tk.Graph().NumVertices(), "vertices")

	res := tk.KCentrality(0, 0) // k = 0, every source: exact betweenness
	top := res.TopK(1)
	fmt.Println("most central vertex (original id):", tk.OrigID(top[0]))

	tk.Restore()
	fmt.Println("restored:", tk.Graph().NumVertices(), "vertices")
	// Output:
	// components: 2
	// largest: 8 vertices
	// most central vertex (original id): 0
	// restored: 12 vertices
}
