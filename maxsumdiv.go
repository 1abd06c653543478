// Package maxsumdiv is a Go implementation of max-sum diversification with
// monotone submodular quality functions, matroid constraints, and dynamic
// updates, reproducing:
//
//	Borodin, Jain, Lee, Ye. "Max-Sum Diversification, Monotone Submodular
//	Functions and Dynamic Updates." PODS 2012 (arXiv:1203.6397).
//
// Given items with a quality function f and a metric distance d, the library
// selects a subset S maximizing
//
//	φ(S) = f(S) + λ · Σ_{ {u,v} ⊆ S } d(u,v)
//
// subject to a cardinality constraint (|S| ≤ p) or independence in a matroid.
//
// # Quick start
//
//	items := []maxsumdiv.Item{
//		{ID: "a", Weight: 0.9, Vector: []float64{1, 0}},
//		{ID: "b", Weight: 0.8, Vector: []float64{0.9, 0.1}},
//		{ID: "c", Weight: 0.5, Vector: []float64{0, 1}},
//	}
//	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.5))
//	// handle err
//	sol, err := ix.Query(ctx, maxsumdiv.Query{K: 2})
//	// handle err
//	fmt.Println(sol.IDs, sol.Value)
//
// The Index is the unit of reuse: it owns the immutable items, the
// materialized (or lazily memoized) distance backend, a cached scan-worker
// pool, and pooled solver scratch — everything whose cost should be paid
// once, not per query. A Query carries everything that varies per request:
// k, λ (Query.Lambda overrides the index default; 0 means pure quality),
// the algorithm, a custom quality function, and an optional matroid
// constraint. One Index safely serves concurrent queries with different
// parameters, and the ctx argument cancels a solve mid-scan — pass a
// deadline-carrying context to bound tail latency (essential for
// AlgorithmExact).
//
// Algorithms: AlgorithmGreedy (Theorem 1, the default),
// AlgorithmGollapudiSharma (the Greedy A baseline), AlgorithmLocalSearch
// (Theorem 2, any matroid via Query.Constraint), AlgorithmExact (small
// instances), plus the MMR baseline, the Index.GreedyMatroid and
// Index.Knapsack heuristics, and a Dynamic session implementing the
// Section 6 oblivious update rule.
//
// Failures carry typed sentinels (ErrNoItems, ErrKOutOfRange,
// ErrNeedsModularQuality, …) — branch with errors.Is; cancelled queries
// return ctx.Err() unwrapped.
//
// # Scaling
//
// Query shards every argmax-over-candidates scan across the index's cached
// bounded worker pool (Query.Parallelism overrides; solutions are
// byte-identical to serial runs at every setting), WithLazyDistances
// replaces the O(n²) dense distance matrix with a concurrency-safe
// memoizing cache for large item sets, and WithFloat32 swaps in a blocked
// flat-row float32 backend whose steady-state solve loop is
// zero-allocation — the fast choice for pair-scanning algorithms and
// repeated queries. Dynamic.SetParallelism and WithStreamParallelism extend
// the same engine to dynamic maintenance and streaming. cmd/bench measures
// all of it into a machine-readable report that CI gates against the
// committed baseline (see README "Performance").
//
// # Vector backends and candidate generation
//
// Every materialized backend stores O(n²) pairwise distances, which stops
// fitting in memory long before "millions of items". The vector-native path
// removes the quadratic term end to end: NewVectorIndex (or NewIndex with
// WithVectorBackendF32 / WithVectorBackendInt8) keeps only the item vectors
// — n·d·4 bytes as float32, or n·(d+4) int8-quantized — and computes cosine
// distances on demand, and Query.Candidates = CandidatesPreFiltered
// restricts each solve to a random-projection candidate subset
// (Query.CandidateTarget sizes it; the index selects it from a sketch built
// once per signature width, on first use) so scan work is O(candidates·k)
// rather than O(n·k). Exact-scan queries remain the default everywhere; the
// pre-filter is opt-in per query and measured by the bench suite's
// accuracy-vs-exact-scan probe. Index.BackendKind reports which backend a
// corpus actually runs on, and Index.VectorRowCacheStats exposes the vector
// backends' bounded solution-row cache counters, mirroring
// DistanceCacheStats for the lazy backend.
//
// The ground set is fully dynamic: Dynamic.Insert and Dynamic.Delete grow
// and shrink the live item set while the maintained selection keeps
// absorbing oblivious updates. cmd/serve exposes the whole library as a
// sharded in-memory HTTP service (see internal/server) that holds one
// long-lived corpus index per process — zero distance-backend
// constructions on the query path — and cmd/loadgen drives workloads
// against it.
package maxsumdiv

import (
	"fmt"

	"maxsumdiv/internal/metric"
)

// Item is one candidate element: an identifier, a non-negative quality
// weight (used by the default modular quality function), and an optional
// feature vector (used by the vector-based distance options).
type Item struct {
	ID     string
	Weight float64
	Vector []float64
}

// SetFunction is a user-supplied quality function f over item indices. It
// must be normalized (f(∅) = 0) and, for the approximation guarantees to
// hold, monotone submodular. Value must not retain or mutate S.
type SetFunction interface {
	// Value returns f(S) for item indices S.
	Value(S []int) float64
}

// Option configures NewIndex and NewVectorIndex.
type Option func(*indexCfg)

type indexCfg struct {
	lambda      float64
	distance    distanceChoice
	matrix      [][]float64
	fn          func(i, j int) float64
	quality     SetFunction
	validate    bool
	lazy        bool
	float32     bool
	vecKind     string // metric.KindVecF32 / KindVecInt8; "" = materialized
	parallelism int
}

type distanceChoice int

const (
	distAuto distanceChoice = iota
	distCosine
	distAngular
	distEuclidean
	distManhattan
	distMatrix
	distFunc
)

// WithLambda sets the index-default quality/diversity trade-off λ ≥ 0
// (default 1). Queries override it per call via Query.Lambda.
func WithLambda(lambda float64) Option {
	return func(c *indexCfg) { c.lambda = lambda }
}

// WithCosineDistance uses 1 − cos(u,v) over item vectors (the paper's LETOR
// setting). This is the default when items carry vectors.
func WithCosineDistance() Option {
	return func(c *indexCfg) { c.distance = distCosine }
}

// WithAngularDistance uses arccos(cos(u,v))/π over item vectors — a true
// metric on the same geometry as the cosine distance.
func WithAngularDistance() Option {
	return func(c *indexCfg) { c.distance = distAngular }
}

// WithEuclideanDistance uses the ℓ2 distance over item vectors.
func WithEuclideanDistance() Option {
	return func(c *indexCfg) { c.distance = distEuclidean }
}

// WithManhattanDistance uses the ℓ1 distance over item vectors.
func WithManhattanDistance() Option {
	return func(c *indexCfg) { c.distance = distManhattan }
}

// WithDistanceMatrix supplies an explicit symmetric distance matrix indexed
// like the item slice.
func WithDistanceMatrix(m [][]float64) Option {
	return func(c *indexCfg) {
		c.distance = distMatrix
		c.matrix = m
	}
}

// WithDistanceFunc supplies a custom distance function over item indices.
// The function is materialized into a dense matrix at construction (or
// memoized on demand under WithLazyDistances), and must be symmetric with
// zero diagonal.
func WithDistanceFunc(f func(i, j int) float64) Option {
	return func(c *indexCfg) {
		c.distance = distFunc
		c.fn = f
	}
}

// WithQuality sets the index-default quality function, replacing the
// modular (weight-sum) default; queries override it per call via
// Query.Quality. The guarantees of Theorems 1–2 require f to be normalized
// monotone submodular. GollapudiSharma and Dynamic require the modular
// default and reject indexes built with this option.
//
// Query shards its scans across worker goroutines by default, and each
// worker calls f.Value concurrently — f must therefore be safe for
// concurrent calls (a pure function of S is; one that memoizes into an
// unsynchronized map is not). Set Query.Parallelism to 1 to keep a stateful
// f on a single goroutine.
func WithQuality(f SetFunction) Option {
	return func(c *indexCfg) { c.quality = f }
}

// WithDefaultParallelism sets how many scan workers the index's cached pool
// runs: 1 means serial queries by default, k ≤ 0 (the default) selects
// GOMAXPROCS. Query.Parallelism overrides per call.
func WithDefaultParallelism(k int) Option {
	return func(c *indexCfg) { c.parallelism = k }
}

// WithLazyDistances skips materializing the configured distance into a
// dense O(n²) matrix at construction for large item sets. Distances are
// instead computed on first use and memoized in a concurrency-safe striped
// cache, which is the right trade at large n (a 10k-item dense matrix alone
// is ~400 MB) or when a solver will only touch a fraction of the pairs.
// Small item sets are still materialized eagerly — a few MB of dense matrix
// beats per-lookup cache locking. Ignored for WithDistanceMatrix, which is
// already materialized. With WithDistanceFunc, the supplied function must
// be safe for concurrent calls when combined with parallel solving.
func WithLazyDistances() Option {
	return func(c *indexCfg) { c.lazy = true }
}

// WithFloat32 materializes the configured distance into a flat-row float32
// matrix built with blocked (cache-tiled) kernels instead of the default
// float64 representation. Same memory footprint as the float64 matrix
// (4n² bytes either way), but construction streams point tiles through the
// cache rather than calling the distance once per pair, and the solvers'
// O(n) per-step row folds become contiguous float32 streams — the
// zero-allocation steady-state hot path. Distances round to float32
// (~1e-7 relative), far below the scales at which selection changes; exact
// reproducibility of float64 runs is the only reason not to use it.
//
// Incompatible with WithLazyDistances (eager full matrix vs on-demand
// cache — pick per workload: pair-scanning algorithms and repeated queries
// want WithFloat32, one-shot small-k greedy on a huge corpus wants the lazy
// cache). NewIndex rejects the combination with ErrBackendConflict.
func WithFloat32() Option {
	return func(c *indexCfg) { c.float32 = true }
}

// WithVectorBackendF32 stores only the item vectors as flat float32
// (n·d·4 bytes) and computes cosine distances on demand, instead of
// materializing any O(n²) pairwise structure — the backend that takes an
// Index past the point where a distance matrix can fit in memory. Distances
// match the float64 reference within ~1e-6 absolute (see
// metric.CosineDist's precision contract); a bounded solution-row cache
// keeps local search's hot row folds from recomputing.
//
// Vector backends compute the cosine distance only: combining with a
// non-cosine distance option, WithDistanceMatrix, WithDistanceFunc,
// WithLazyDistances, or WithFloat32 fails with ErrBackendConflict, and every
// item must carry a vector. Queries at large n usually pair this with
// Query.Candidates = CandidatesPreFiltered so scans touch O(candidates·k)
// work instead of O(n·k).
func WithVectorBackendF32() Option {
	return func(c *indexCfg) { c.vecKind = metric.KindVecF32 }
}

// WithVectorBackendInt8 is WithVectorBackendF32 with int8-quantized vectors
// (one float32 scale per item, n·(d+4) bytes — ~4× smaller again). The
// per-item scale cancels out of cosine similarity, so the additional error
// is only coordinate rounding: O(√d/127) absolute on the distance, which
// selection tolerates at typical dimensions. Same option conflicts as
// WithVectorBackendF32.
func WithVectorBackendInt8() Option {
	return func(c *indexCfg) { c.vecKind = metric.KindVecInt8 }
}

// WithMetricValidation makes NewIndex verify the triangle inequality over
// all triples (O(n³); intended for tests and small instances). Construction
// fails with a descriptive error when the distance is not a metric.
func WithMetricValidation() Option {
	return func(c *indexCfg) { c.validate = true }
}

// buildMetric materializes the configured distance into a dense matrix, or
// wraps it in the lazy memoizing cache under WithLazyDistances.
func buildMetric(items []Item, cfg *indexCfg) (metric.Metric, error) {
	choice := cfg.distance
	if choice == distAuto {
		if len(items[0].Vector) > 0 {
			choice = distCosine
		} else {
			return nil, fmt.Errorf("%w: supply WithDistanceMatrix or WithDistanceFunc", ErrNoVectors)
		}
	}
	if cfg.vecKind != "" {
		if cfg.lazy {
			return nil, fmt.Errorf("%w: vector backends exclude WithLazyDistances", ErrBackendConflict)
		}
		if cfg.float32 {
			return nil, fmt.Errorf("%w: vector backends exclude WithFloat32", ErrBackendConflict)
		}
		if choice != distCosine {
			return nil, fmt.Errorf("%w: vector backends compute the cosine distance only", ErrBackendConflict)
		}
		vecs := make([][]float64, len(items))
		for i, it := range items {
			if len(it.Vector) == 0 {
				return nil, fmt.Errorf("%w: item %q has no vector but a vector backend was requested", ErrNoVectors, it.ID)
			}
			vecs[i] = it.Vector
		}
		vs, err := metric.NewVecStoreFromVectors(cfg.vecKind, vecs)
		if err != nil {
			return nil, fmt.Errorf("maxsumdiv: %w", err)
		}
		return vs, nil
	}
	// prep converts a computed metric to its lookup form: a dense matrix by
	// default; under WithFloat32, the blocked flat-row float32 matrix; under
	// WithLazyDistances, Memoize picks the striped cache at large n and
	// still materializes small spaces (a few MB of dense matrix beats
	// per-lookup locking there).
	prep := func(m metric.Metric) metric.Metric {
		switch {
		case cfg.float32:
			return metric.MaterializeF32(m)
		case cfg.lazy:
			return metric.Memoize(m)
		default:
			return metric.Materialize(m)
		}
	}
	vectors := func() ([][]float64, error) {
		vecs := make([][]float64, len(items))
		for i, it := range items {
			if len(it.Vector) == 0 {
				return nil, fmt.Errorf("%w: item %q has no vector but a vector distance was requested", ErrNoVectors, it.ID)
			}
			vecs[i] = it.Vector
		}
		return vecs, nil
	}
	switch choice {
	case distCosine:
		vecs, err := vectors()
		if err != nil {
			return nil, err
		}
		c, err := metric.NewCosine(vecs)
		if err != nil {
			return nil, fmt.Errorf("maxsumdiv: %w", err)
		}
		return prep(c), nil
	case distAngular:
		vecs, err := vectors()
		if err != nil {
			return nil, err
		}
		a, err := metric.NewAngular(vecs)
		if err != nil {
			return nil, fmt.Errorf("maxsumdiv: %w", err)
		}
		return prep(a), nil
	case distEuclidean, distManhattan:
		vecs, err := vectors()
		if err != nil {
			return nil, err
		}
		norm := metric.L2
		if choice == distManhattan {
			norm = metric.L1
		}
		p, err := metric.NewPoints(vecs, norm)
		if err != nil {
			return nil, fmt.Errorf("maxsumdiv: %w", err)
		}
		return prep(p), nil
	case distMatrix:
		d, err := metric.NewDenseFromMatrix(cfg.matrix)
		if err != nil {
			return nil, fmt.Errorf("maxsumdiv: %w", err)
		}
		if d.Len() != len(items) {
			return nil, fmt.Errorf("maxsumdiv: distance matrix is %d×%d but there are %d items", d.Len(), d.Len(), len(items))
		}
		if cfg.float32 {
			return metric.MaterializeF32(d), nil
		}
		return d, nil
	case distFunc:
		if cfg.fn == nil {
			return nil, fmt.Errorf("maxsumdiv: nil distance function")
		}
		return prep(metric.Func{N: len(items), F: cfg.fn}), nil
	default:
		return nil, fmt.Errorf("maxsumdiv: unknown distance choice %d", choice)
	}
}

// adaptedQuality bridges a user SetFunction to the internal interface.
type adaptedQuality struct {
	fn SetFunction
	n  int
}

func (a *adaptedQuality) GroundSize() int       { return a.n }
func (a *adaptedQuality) Value(S []int) float64 { return a.fn.Value(S) }
