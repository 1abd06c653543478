package maxsumdiv

import (
	"fmt"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/matroid"
)

// Solution is the result of a solver run.
type Solution struct {
	// Indices are the selected item indices, sorted ascending.
	Indices []int
	// IDs are the corresponding item identifiers, in index order.
	IDs []string
	// Value is φ(S) = Quality + λ·Dispersion.
	Value float64
	// Quality is f(S).
	Quality float64
	// Dispersion is Σ_{ {u,v} ⊆ S } d(u,v).
	Dispersion float64
	// Swaps counts improving swaps a local search applied.
	Swaps int
}

// Algorithm selects the solver a Query dispatches to.
type Algorithm int

const (
	// AlgorithmGreedy is the paper's non-oblivious greedy (Theorem 1,
	// 2-approximation) — the default.
	AlgorithmGreedy Algorithm = iota
	// AlgorithmGreedyImproved opens the greedy with the best pair (Table 3).
	AlgorithmGreedyImproved
	// AlgorithmGollapudiSharma is the Greedy A baseline (modular quality
	// only).
	AlgorithmGollapudiSharma
	// AlgorithmOblivious is the objective-marginal greedy ablation (no
	// guarantee).
	AlgorithmOblivious
	// AlgorithmLocalSearch runs the greedy, then polishes it with the
	// Section 5 single-swap local search under |S| ≤ k (Theorem 2); with
	// Query.Constraint it searches under the matroid instead.
	AlgorithmLocalSearch
	// AlgorithmExact is the branch-and-bound optimum (small instances only;
	// give the query a context deadline).
	AlgorithmExact
)

// GreedyMatroid runs the Section 4 greedy under a matroid constraint. The
// paper's Appendix shows its ratio is unbounded in general — use it as a
// fast heuristic or as Query.Init for AlgorithmLocalSearch, not for
// guarantees.
func (ix *Index) GreedyMatroid(c Constraint) (*Solution, error) {
	if err := ix.checkConstraint(c); err != nil {
		return nil, err
	}
	sol, err := core.GreedyMatroid(ix.defaultObj, adaptConstraint(c))
	if err != nil {
		return nil, err
	}
	return ix.wrap(sol), nil
}

// Knapsack approximately maximizes φ(S) under a budget constraint
// Σ cost(u) ≤ budget using partial-enumeration greedy (seedSize restarts of
// the Theorem 1 potential greedy from every feasible seed of that size,
// under both raw-potential and potential-per-cost rules).
//
// The paper's conclusion leaves the knapsack-constrained diversification
// guarantee open; this is the Sviridenko-style heuristic it suggests, with
// no ratio claimed. With uniform costs it never does worse than the greedy.
func (ix *Index) Knapsack(costs []float64, budget float64, seedSize int) (*Solution, error) {
	sol, err := core.GreedyKnapsack(ix.defaultObj, costs, budget, &core.KnapsackOptions{SeedSize: seedSize})
	if err != nil {
		return nil, err
	}
	return ix.wrap(sol), nil
}

// MMR runs Maximal Marginal Relevance (Carbonell–Goldstein) as a baseline:
// relevance is the item weight, similarity is dmax − d(u,v), and lambda ∈
// [0,1] trades relevance against novelty. Returns picks in selection order.
// Requires the default modular quality.
func (ix *Index) MMR(lambda float64, k int) (*Solution, error) {
	if ix.modular == nil {
		return nil, fmt.Errorf("%w: MMR needs item weights", ErrNeedsModularQuality)
	}
	rel := make([]float64, ix.Len())
	for i := range rel {
		rel[i] = ix.modular.Weight(i)
	}
	sim := core.SimilarityFromMetric(ix.dist)
	picks, err := core.MMR(rel, sim, lambda, k)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(picks))
	for i, m := range picks {
		ids[i] = ix.items[m].ID
	}
	return &Solution{
		Indices:    picks,
		IDs:        ids,
		Value:      ix.defaultObj.Value(picks),
		Quality:    ix.defaultObj.F().Value(picks),
		Dispersion: ix.defaultObj.Dispersion(picks),
	}, nil
}

// Constraint is a matroid independence oracle over item indices. It must
// satisfy the matroid axioms (hereditary + augmentation) for the Theorem 2
// guarantee; see the constructors for ready-made families.
//
// When a query runs with more than one scan worker, Independent is called
// from multiple goroutines concurrently and must be safe for that (every
// built-in constructor is; a custom oracle with unsynchronized mutable
// scratch is not).
type Constraint interface {
	// GroundSize returns the number of items the constraint covers.
	GroundSize() int
	// Independent reports whether the index set S is independent.
	Independent(S []int) bool
	// Rank returns the size of every maximal independent set.
	Rank() int
}

// adaptConstraint converts the public Constraint to the internal matroid
// interface (they are structurally identical). A constraint built by an
// Index constructor converts to its bare matroid.
func adaptConstraint(c Constraint) matroid.Matroid {
	if ic, ok := c.(*indexConstraint); ok {
		return ic.Matroid
	}
	if m, ok := c.(matroid.Matroid); ok {
		return m
	}
	return constraintAdapter{c}
}

type constraintAdapter struct{ Constraint }
