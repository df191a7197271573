package stream_test

import (
	"fmt"

	"graphct/internal/stream"
)

// ExampleStream maintains triangle counts incrementally as edges arrive,
// then closes a triangle and watches the transitivity jump.
func ExampleStream() {
	s := stream.New(4)
	s.Insert(stream.Update{U: 0, V: 1, Time: 1})
	s.Insert(stream.Update{U: 1, V: 2, Time: 2})
	fmt.Printf("before closing: transitivity = %.2f\n", s.GlobalCoefficient())
	s.Insert(stream.Update{U: 2, V: 0, Time: 3}) // closes triangle 0-1-2
	fmt.Printf("after closing:  transitivity = %.2f\n", s.GlobalCoefficient())
	snap := s.Snapshot()
	fmt.Println("snapshot edges:", snap.NumEdges())
	// Output:
	// before closing: transitivity = 0.00
	// after closing:  transitivity = 1.00
	// snapshot edges: 3
}
