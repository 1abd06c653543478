package maxsumdiv

import (
	"context"
	"fmt"
	"time"

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

// Algorithm selects the solver a Query (or the deprecated Solve) dispatches
// to.
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

// SolveOption configures the deprecated Solve wrapper.
//
// Deprecated: set the corresponding Query fields instead.
type SolveOption func(*solveCfg)

type solveCfg struct {
	algo        Algorithm
	parallelism int
	clampK      bool
}

// WithParallelism sets how many worker goroutines Solve's candidate scans
// shard across: 1 forces serial execution, k ≤ 0 (the default) uses
// GOMAXPROCS. Selection rules are total orders, so every parallelism level
// returns the identical solution.
//
// Deprecated: set Query.Parallelism (0 reuses the index's cached pool).
func WithParallelism(k int) SolveOption {
	return func(c *solveCfg) { c.parallelism = k }
}

// WithAlgorithm selects which solver Solve runs (default AlgorithmGreedy).
//
// Deprecated: set Query.Algorithm.
func WithAlgorithm(a Algorithm) SolveOption {
	return func(c *solveCfg) { c.algo = a }
}

// WithClampK makes Solve treat k > Len() as k = Len() instead of returning
// an error, so every solve returns exactly min(k, n) items.
//
// Deprecated: set Query.ClampK.
func WithClampK() SolveOption {
	return func(c *solveCfg) { c.clampK = true }
}

// Solve selects up to k items with the configured algorithm.
//
// Deprecated: use Index.Query, which reuses the index's cached worker pool,
// accepts a context for cancellation, and exposes λ/quality per call. Solve
// delegates to it with context.Background().
func (p *Problem) Solve(k int, opts ...SolveOption) (*Solution, error) {
	cfg := solveCfg{algo: AlgorithmGreedy}
	for _, o := range opts {
		o(&cfg)
	}
	q := Query{K: k, Algorithm: cfg.algo, ClampK: cfg.clampK}
	// Solve's parallelism convention: 1 = serial, anything else (including
	// the 0 default) = a GOMAXPROCS-bounded pool. Query's 0 reuses the
	// index pool, which is exactly that unless WithDefaultParallelism
	// narrowed it.
	switch cfg.parallelism {
	case 0:
		q.Parallelism = 0
	case 1:
		q.Parallelism = 1
	default:
		q.Parallelism = cfg.parallelism
	}
	return p.ix.Query(context.Background(), q)
}

// Greedy runs the paper's non-oblivious greedy (Theorem 1): repeatedly add
// the item maximizing ½f_u(S) + λ·d_u(S) until |S| = k. A 2-approximation
// for normalized monotone submodular quality over a metric; O(n·k) marginal
// evaluations.
//
// Deprecated: use Index.Query with the default algorithm.
func (p *Problem) Greedy(k int) (*Solution, error) {
	return p.ix.Query(context.Background(), Query{K: k, Parallelism: 1})
}

// GreedyImproved is Greedy opening with the best pair instead of the best
// singleton (the paper's Table 3 variant; same guarantee, often slightly
// better in practice, O(n²) once per index).
//
// Deprecated: use Index.Query with AlgorithmGreedyImproved.
func (p *Problem) GreedyImproved(k int) (*Solution, error) {
	return p.ix.Query(context.Background(), Query{K: k, Algorithm: AlgorithmGreedyImproved, Parallelism: 1})
}

// GollapudiSharma runs the paper's Greedy A baseline: the Gollapudi–Sharma
// reduction to max-sum dispersion solved by the Hassin–Rubinstein–Tamir edge
// greedy. Requires the default modular quality (item weights).
//
// Deprecated: use Index.Query with AlgorithmGollapudiSharma.
func (p *Problem) GollapudiSharma(k int) (*Solution, error) {
	return p.ix.Query(context.Background(), Query{K: k, Algorithm: AlgorithmGollapudiSharma, Parallelism: 1})
}

// LocalSearchOptions configures the deprecated LocalSearch wrapper.
//
// Deprecated: set the corresponding Query fields instead.
type LocalSearchOptions struct {
	// Init seeds the search (e.g. a Greedy solution's Indices). Nil starts
	// from a basis containing the best independent pair, as in Section 5.
	Init []int
	// MinGain is the minimum absolute improvement per swap (0 = any).
	MinGain float64
	// RelEps requires each swap to improve by a (1+RelEps) factor — the
	// paper's polynomial-time ε-improvement rule.
	RelEps float64
	// MaxSwaps caps applied swaps (0 = unlimited).
	MaxSwaps int
	// TimeBudget bounds the search wall-clock (0 = unlimited).
	TimeBudget time.Duration
	// Parallelism shards the swap-neighborhood scan across this many worker
	// goroutines: 0 or 1 runs serially, negative values select GOMAXPROCS.
	// Every setting returns the identical solution.
	Parallelism int
}

// LocalSearch runs the paper's oblivious single-swap local search under a
// matroid constraint (Theorem 2: a 2-approximation at the local optimum).
// Build constraints with Cardinality, PartitionConstraint,
// TransversalConstraint, or any custom Constraint.
//
// Deprecated: use Index.Query with AlgorithmLocalSearch and
// Query.Constraint.
func (p *Problem) LocalSearch(c Constraint, opts *LocalSearchOptions) (*Solution, error) {
	if c == nil {
		return nil, ErrNilConstraint
	}
	q := Query{Algorithm: AlgorithmLocalSearch, Constraint: c, Parallelism: 1}
	if opts != nil {
		q.Init = opts.Init
		q.MinGain = opts.MinGain
		q.RelEps = opts.RelEps
		q.MaxSwaps = opts.MaxSwaps
		q.TimeBudget = opts.TimeBudget
		if opts.Parallelism != 0 && opts.Parallelism != 1 {
			q.Parallelism = opts.Parallelism
		}
	}
	return p.ix.Query(context.Background(), q)
}

// GreedyMatroid runs the Section 4 greedy under a matroid constraint. The
// paper's Appendix shows its ratio is unbounded in general — use it as a
// fast heuristic or LocalSearch initializer, not for guarantees.
func (p *Problem) GreedyMatroid(c Constraint) (*Solution, error) {
	if c == nil {
		return nil, ErrNilConstraint
	}
	sol, err := core.GreedyMatroid(p.ix.defaultObj, adaptConstraint(c))
	if err != nil {
		return nil, err
	}
	return p.ix.wrap(sol), nil
}

// Exact computes the optimal size-k subset by parallel branch-and-bound
// enumeration. Exponential: intended for small instances (n ≤ ~60 with
// small k) and for measuring observed approximation factors.
//
// Deprecated: use Index.Query with AlgorithmExact and a context deadline.
func (p *Problem) Exact(k int) (*Solution, error) {
	return p.ix.Query(context.Background(), Query{K: k, Algorithm: AlgorithmExact})
}

// ExactMatroid computes an optimal basis of the constraint by exhaustive
// enumeration of independent sets. Exponential; small instances only.
//
// Deprecated: use Index.Query with AlgorithmExact and Query.Constraint.
func (p *Problem) ExactMatroid(c Constraint) (*Solution, error) {
	if c == nil {
		return nil, ErrNilConstraint
	}
	return p.ix.Query(context.Background(), Query{Algorithm: AlgorithmExact, Constraint: c})
}

// MMR runs Maximal Marginal Relevance (Carbonell–Goldstein) as a baseline;
// see Index.MMR.
func (p *Problem) MMR(lambda float64, k int) (*Solution, error) {
	return p.ix.MMR(lambda, k)
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

// Cardinality returns the constraint |S| ≤ k (the uniform matroid).
func (p *Problem) Cardinality(k int) (Constraint, error) {
	return p.ix.Cardinality(k)
}

// PartitionConstraint returns a partition matroid; see
// Index.PartitionConstraint.
func (p *Problem) PartitionConstraint(partOf []int, caps []int) (Constraint, error) {
	return p.ix.PartitionConstraint(partOf, caps)
}

// TransversalConstraint returns a transversal matroid; see
// Index.TransversalConstraint.
func (p *Problem) TransversalConstraint(sets [][]int) (Constraint, error) {
	return p.ix.TransversalConstraint(sets)
}

// TruncatedConstraint caps any constraint at cardinality k; see
// Index.TruncatedConstraint.
func (p *Problem) TruncatedConstraint(c Constraint, k int) (Constraint, error) {
	return p.ix.TruncatedConstraint(c, k)
}
