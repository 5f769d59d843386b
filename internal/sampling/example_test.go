package sampling_test

import (
	"fmt"

	"actop/internal/sampling"
)

func ExampleSpaceSaving() {
	// Track the heaviest communication edges in constant space.
	s := sampling.NewSpaceSaving[string](3)
	for i := 0; i < 100; i++ {
		s.Observe("game1-player7", 1)
	}
	for i := 0; i < 60; i++ {
		s.Observe("game1-player2", 1)
	}
	s.Observe("stranger-ping", 1) // light edge: may be evicted later
	s.Each(func(e *sampling.Entry[string, struct{}]) {
		if e.Count >= 50 {
			fmt.Printf("%s ≈ %d\n", e.Key, e.Count)
		}
	})
	// Output:
	// game1-player7 ≈ 100
	// game1-player2 ≈ 60
}
