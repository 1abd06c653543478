package maxsumdiv_test

import (
	"context"
	"fmt"

	"maxsumdiv"
)

// The paper's greedy (Theorem 1) on a tiny instance: three near-duplicate
// high-relevance documents and two fresh topics.
func ExampleIndex_Query() {
	items := []maxsumdiv.Item{
		{ID: "car-1", Weight: 0.9, Vector: []float64{1, 0, 0}},
		{ID: "car-2", Weight: 0.9, Vector: []float64{1, 0.05, 0}},
		{ID: "car-3", Weight: 0.9, Vector: []float64{1, 0, 0.05}},
		{ID: "zoo-1", Weight: 0.6, Vector: []float64{0, 1, 0}},
		{ID: "mac-1", Weight: 0.5, Vector: []float64{0, 0, 1}},
	}
	ix, err := maxsumdiv.NewIndex(items,
		maxsumdiv.WithLambda(0.5),
		maxsumdiv.WithAngularDistance(),
	)
	if err != nil {
		panic(err)
	}
	sol, err := ix.Query(context.Background(), maxsumdiv.Query{K: 3, Parallelism: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.IDs)
	// Output: [car-1 zoo-1 mac-1]
}

// A partition matroid keeps the selection balanced across groups; local
// search provides Theorem 2's 2-approximation.
func ExampleIndex_Query_localSearch() {
	items := []maxsumdiv.Item{
		{ID: "t1", Weight: 0.9, Vector: []float64{1, 0}},
		{ID: "t2", Weight: 0.8, Vector: []float64{0.9, 0.1}},
		{ID: "e1", Weight: 0.6, Vector: []float64{0, 1}},
		{ID: "e2", Weight: 0.5, Vector: []float64{0.1, 0.9}},
	}
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithAngularDistance())
	if err != nil {
		panic(err)
	}
	// Items 0,1 are "tech", 2,3 are "energy": at most one from each.
	constraint, err := ix.PartitionConstraint([]int{0, 0, 1, 1}, []int{1, 1})
	if err != nil {
		panic(err)
	}
	sol, err := ix.Query(context.Background(), maxsumdiv.Query{
		Algorithm:   maxsumdiv.AlgorithmLocalSearch,
		Constraint:  constraint,
		Parallelism: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(sol.IDs)
	// Output: [t1 e1]
}

// The Section 6 dynamic session: a weight spike pulls an item into the
// selection with a single oblivious swap.
func ExampleIndex_NewDynamic() {
	items := []maxsumdiv.Item{
		{ID: "a", Weight: 1.0, Vector: []float64{1, 0}},
		{ID: "b", Weight: 0.9, Vector: []float64{0, 1}},
		{ID: "c", Weight: 0.1, Vector: []float64{1, 1}},
	}
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithAngularDistance())
	if err != nil {
		panic(err)
	}
	start, err := ix.Query(context.Background(), maxsumdiv.Query{K: 2, Parallelism: 1})
	if err != nil {
		panic(err)
	}
	session, err := ix.NewDynamic(start.Indices)
	if err != nil {
		panic(err)
	}
	pert, err := session.UpdateWeight(2, 5) // item c spikes
	if err != nil {
		panic(err)
	}
	if _, err := session.Maintain(pert); err != nil {
		panic(err)
	}
	fmt.Println(session.IDs())
	// Output: [a c]
}
