package bc_test

import (
	"fmt"

	"graphct/internal/bc"
	"graphct/internal/gen"
)

// ExampleExact ranks the vertices of a star graph: the hub brokers every
// pair of leaves.
func ExampleExact() {
	g := gen.Star(6)
	res := bc.Exact(g)
	fmt.Println("hub score:", res.Scores[0])
	fmt.Println("leaf score:", res.Scores[3])
	// Divided by the (n-1)(n-2) ordered pairs a vertex could broker.
	fmt.Println("normalized hub:", res.Scores[0]/(5*4))
	// Output:
	// hub score: 20
	// leaf score: 0
	// normalized hub: 1
}

// ExampleApprox samples sources instead of using all of them; scores are
// scaled to estimate the exact values and the ranking concentrates on the
// same vertices.
func ExampleApprox() {
	g := gen.Star(100)
	res := bc.Approx(g, 10, 42)
	fmt.Println("sources used:", len(res.Sources))
	fmt.Println("top vertex:", res.TopK(1)[0])
	// Output:
	// sources used: 10
	// top vertex: 0
}
