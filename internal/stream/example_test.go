package stream_test

import (
	"fmt"

	"graphct/internal/cluster"
	"graphct/internal/stream"
)

// ExampleStream applies batches of edges and recounts the transitivity on
// each snapshot, watching it jump when a batch closes a triangle.
func ExampleStream() {
	s := stream.New(4)
	s.ApplyBatch([]stream.Update{{U: 0, V: 1, Time: 1}, {U: 1, V: 2, Time: 2}})
	fmt.Printf("before closing: transitivity = %.2f\n", cluster.Global(s.Snapshot()))
	s.ApplyBatch([]stream.Update{{U: 2, V: 0, Time: 3}}) // closes triangle 0-1-2
	snap := s.Snapshot()
	fmt.Printf("after closing:  transitivity = %.2f\n", cluster.Global(snap))
	fmt.Println("snapshot edges:", snap.NumEdges())
	// Output:
	// before closing: transitivity = 0.00
	// after closing:  transitivity = 1.00
	// snapshot edges: 3
}
