package maxsumdiv

import (
	"fmt"
	"strconv"

	"maxsumdiv/internal/candidate"
	"maxsumdiv/internal/core"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// Index is a reusable, concurrency-safe max-sum diversification corpus: the
// immutable item list plus the materialized (or lazily memoized) distance
// backend, a cached scan-worker pool, and a shared solver-scratch cache.
// Build it once with NewIndex — the construction pays the O(n²) backend
// cost — then answer any number of queries against it with Query: λ, the
// quality function, the algorithm, and the constraint are all query-time
// parameters, so one Index serves every trade-off without rebuilding
// anything.
//
// An Index is safe for concurrent use: queries only read the backend, and
// the scratch cache hands each in-flight solve its own state. This is the
// amortization the dynamic-submodular literature prescribes — pay for
// structure once, reuse it across the query stream — applied to the serving
// path. Two structures are not built by NewIndex. The pre-filter sketch
// (Query.Candidates) is built on the first pre-filtered query at each
// signature width, from the caller's item vectors as they are at that
// moment, and held for the index's lifetime at about 8 bytes per item per
// width used. The pair frontier is built on the first best-pair opening
// under the default modular quality: AlgorithmGreedyImproved, or
// AlgorithmLocalSearch under a constraint with no Init. It is the few
// pairs no earlier pair beats in both quality and distance (a few hundred
// on cosine corpora, at 40 bytes each, and at most 4 per item), and it
// answers every later opening, at any λ, in about a microsecond instead of
// an O(n²) scan. The index holds the frontier over all pairs; a
// constraint from PartitionConstraint or TransversalConstraint holds the
// one over its independent pairs, for as long as the constraint value
// lives.
type Index struct {
	items   []Item
	dist    metric.Metric
	filter  *candidate.Filter // pre-filter over the item vectors; nil without vectors or modular quality
	quality setfunc.Source    // index-default quality (modular unless WithQuality)
	modular *setfunc.Modular  // non-nil when the default quality is modular
	lambda  float64           // index-default trade-off
	pool    *engine.Pool      // cached scan workers for queries
	scratch *core.StateCache  // solver scratch shared across query objectives
	pairs   core.PairCache    // pair frontier of the modular quality (unused without one)

	// defaultObj evaluates with the index defaults; Objective, MMR,
	// GreedyMatroid and Knapsack go through it.
	defaultObj *core.Objective
}

// NewIndex validates the items and options and builds the reusable index.
// The options select the distance (WithCosineDistance, WithDistanceMatrix,
// …), the backend (WithFloat32, WithLazyDistances, WithVectorBackendF32, …),
// the default trade-off (WithLambda) and default quality (WithQuality), and
// the size of the cached query pool (WithDefaultParallelism).
func NewIndex(items []Item, opts ...Option) (*Index, error) {
	if len(items) == 0 {
		return nil, ErrNoItems
	}
	cfg := indexCfg{lambda: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.lazy && cfg.float32 {
		return nil, fmt.Errorf("%w: WithLazyDistances and WithFloat32 are mutually exclusive", ErrBackendConflict)
	}

	dist, err := buildMetric(items, &cfg)
	if err != nil {
		return nil, err
	}
	if cfg.validate {
		if err := metric.Validate(dist, 1e-9); err != nil {
			return nil, fmt.Errorf("maxsumdiv: %w", err)
		}
	}

	var f setfunc.Source
	var modular *setfunc.Modular
	if cfg.quality != nil {
		f = adaptQuality(cfg.quality, len(items))
		if v := f.Value(nil); v != 0 {
			return nil, fmt.Errorf("%w: f(∅) = %g", ErrQualityNotNormalized, v)
		}
	} else {
		weights := make([]float64, len(items))
		for i, it := range items {
			weights[i] = it.Weight
		}
		mod, err := setfunc.NewModular(weights)
		if err != nil {
			return nil, fmt.Errorf("maxsumdiv: %w", err)
		}
		f = mod
		modular = mod
	}

	scratch := core.NewStateCache()
	obj, err := core.NewObjectiveCached(f, cfg.lambda, dist, scratch)
	if err != nil {
		return nil, wrapLambdaErr(err)
	}
	cp := make([]Item, len(items))
	copy(cp, items)
	var filter *candidate.Filter
	if modular != nil {
		vecs := make([][]float64, len(cp))
		for i := range cp {
			if len(cp[i].Vector) == 0 {
				vecs = nil
				break
			}
			vecs[i] = cp[i].Vector
		}
		if vecs != nil {
			filter = candidate.NewFilter(vecs, modular.Weights(), 0)
		}
	}
	return &Index{
		items:      cp,
		dist:       dist,
		filter:     filter,
		quality:    f,
		modular:    modular,
		lambda:     cfg.lambda,
		pool:       engine.New(cfg.parallelism),
		scratch:    scratch,
		defaultObj: obj,
	}, nil
}

// NewVectorIndex builds an Index directly from feature vectors and modular
// quality weights — the vector-native entry point for corpora too large to
// materialize pairwise distances. Item IDs are the decimal indices
// ("0", "1", …); weights may be nil (all zero: pure diversification) or one
// per vector. The backend defaults to the compute-on-demand float32 vector
// store (WithVectorBackendF32, O(n·d) resident bytes); pass
// WithVectorBackendInt8 to quantize, or any NewIndex option to override
// defaults. Pair with Query.Candidates = CandidatesPreFiltered to keep
// per-query scans sublinear in n.
func NewVectorIndex(vectors [][]float64, weights []float64, opts ...Option) (*Index, error) {
	if len(vectors) == 0 {
		return nil, ErrNoItems
	}
	if weights != nil && len(weights) != len(vectors) {
		return nil, fmt.Errorf("maxsumdiv: %d weights for %d vectors", len(weights), len(vectors))
	}
	items := make([]Item, len(vectors))
	for i, v := range vectors {
		var w float64
		if weights != nil {
			w = weights[i]
		}
		items[i] = Item{ID: strconv.Itoa(i), Weight: w, Vector: v}
	}
	return NewIndex(items, append([]Option{WithVectorBackendF32()}, opts...)...)
}

// wrapLambdaErr translates core's lambda validation failure into the public
// sentinel (the only objective-construction error reachable once items and
// quality have been validated).
func wrapLambdaErr(err error) error {
	return fmt.Errorf("%w: %v", ErrInvalidLambda, err)
}

// adaptQuality bridges a user SetFunction to the internal Source interface.
func adaptQuality(fn SetFunction, n int) setfunc.Source {
	return setfunc.AsSource(&adaptedQuality{fn: fn, n: n})
}

// Len returns the number of items.
func (ix *Index) Len() int { return len(ix.items) }

// Lambda returns the index-default trade-off (queries may override it).
func (ix *Index) Lambda() float64 { return ix.lambda }

// Items returns a copy of the item list.
func (ix *Index) Items() []Item {
	cp := make([]Item, len(ix.items))
	copy(cp, ix.items)
	return cp
}

// Distance returns the backend's distance between items i and j.
func (ix *Index) Distance(i, j int) float64 { return ix.dist.Distance(i, j) }

// Objective evaluates φ(S) for item indices S under the index defaults.
func (ix *Index) Objective(S []int) float64 { return ix.defaultObj.Value(S) }

// DistanceCacheStats reports the memoizing distance backend's counters when
// the index was built with WithLazyDistances and the striped cache is in
// play (ok = true): pairs stored, underlying distance evaluations, and total
// lookups. The cache hit rate is 1 − computed/lookups. For eagerly
// materialized indexes (including small WithLazyDistances instances, which
// Memoize promotes to a dense matrix) ok is false.
func (ix *Index) DistanceCacheStats() (stored int, computed, lookups int64, ok bool) {
	c, isCached := ix.dist.(*metric.Cached)
	if !isCached {
		return 0, 0, 0, false
	}
	stored, computed, lookups = c.Counters()
	return stored, computed, lookups, true
}

// BackendKind names the distance backend this index's queries actually run
// against: "dense-f64" (the default materialized float64 matrix),
// "dense-f32" (WithFloat32's blocked flat-row matrix), "lazy" (the
// WithLazyDistances memoizing cache), "vec-f32" / "vec-int8" (the
// compute-on-demand vector stores), or "custom" for anything else. Callers
// use it to verify a deployment choice took effect — e.g. that a large
// corpus really is on a vector backend before traffic hits it.
func (ix *Index) BackendKind() string {
	switch d := ix.dist.(type) {
	case *metric.Dense:
		return "dense-f64"
	case *metric.DenseF32:
		return "dense-f32"
	case *metric.Cached:
		return "lazy"
	case *metric.VecStore:
		return d.Kind()
	default:
		return "custom"
	}
}

// VectorRowCacheStats reports the vector backend's bounded solution-row
// cache counters when the index runs on WithVectorBackendF32/Int8
// (ok = true): row folds served from cache vs recomputed from vectors. The
// analogue of DistanceCacheStats for the compute-on-demand backends; for
// every other backend ok is false.
func (ix *Index) VectorRowCacheStats() (hits, misses int64, ok bool) {
	v, isVec := ix.dist.(*metric.VecStore)
	if !isVec {
		return 0, 0, false
	}
	hits, misses = v.RowCacheCounters()
	return hits, misses, true
}

// indexConstraint is a constraint built by an Index constructor: the
// matroid plus the frontier of its independent pairs, which queries under
// the index's modular quality build once and share (see Index).
type indexConstraint struct {
	matroid.Matroid
	ix    *Index
	pairs *core.PairCache
}

// solveConstraint returns the matroid a query under constraint c solves
// with. When cached (the query opens with a pair under the index's modular
// quality), a constraint built by this index brings its pair cache along.
func (ix *Index) solveConstraint(c Constraint, cached bool) matroid.Matroid {
	m := adaptConstraint(c)
	if ic, ok := c.(*indexConstraint); ok && cached && ic.ix == ix {
		return core.CachePairs(m, ic.pairs)
	}
	return m
}

// checkConstraint rejects a nil constraint and one whose ground set is not
// the index's items.
func (ix *Index) checkConstraint(c Constraint) error {
	if c == nil {
		return ErrNilConstraint
	}
	if c.GroundSize() != ix.Len() {
		return fmt.Errorf("%w: constraint covers %d, index has %d items",
			ErrConstraintMismatch, c.GroundSize(), ix.Len())
	}
	return nil
}

// Cardinality returns the constraint |S| ≤ k (the uniform matroid). Every
// pair is independent under it, so its openings read the index's own pair
// frontier.
func (ix *Index) Cardinality(k int) (Constraint, error) {
	u, err := matroid.NewUniform(ix.Len(), k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrKOutOfRange, err)
	}
	return u, nil
}

// PartitionConstraint returns a partition matroid: partOf[i] assigns each
// item to a part; caps[j] bounds how many items part j contributes (e.g.
// "at most 2 stocks per sector").
func (ix *Index) PartitionConstraint(partOf []int, caps []int) (Constraint, error) {
	if len(partOf) != ix.Len() {
		return nil, fmt.Errorf("%w: partOf has %d entries for %d items", ErrConstraintMismatch, len(partOf), ix.Len())
	}
	m, err := matroid.NewPartition(partOf, caps)
	if err != nil {
		return nil, fmt.Errorf("maxsumdiv: %w", err)
	}
	return &indexConstraint{m, ix, new(core.PairCache)}, nil
}

// TransversalConstraint returns a transversal matroid: sets[j] lists the
// item indices belonging to collection C_j, and a selection is independent
// when it has a system of distinct representatives (Section 5's "every
// selected tuple represents a unique source").
func (ix *Index) TransversalConstraint(sets [][]int) (Constraint, error) {
	m, err := matroid.NewTransversal(ix.Len(), sets)
	if err != nil {
		return nil, fmt.Errorf("maxsumdiv: %w", err)
	}
	return &indexConstraint{m, ix, new(core.PairCache)}, nil
}

// TruncatedConstraint caps any constraint at cardinality k (matroid
// truncation; Section 5 notes the intersection with a uniform matroid is
// still a matroid). A truncation at k ≥ 2 keeps every independent pair, so
// over a constraint from this index's constructors it shares that
// constraint's pair frontier (below 2 it never opens with a pair).
func (ix *Index) TruncatedConstraint(c Constraint, k int) (Constraint, error) {
	if c == nil {
		return nil, ErrNilConstraint
	}
	m, err := matroid.NewTruncated(adaptConstraint(c), k)
	if err != nil {
		return nil, fmt.Errorf("maxsumdiv: %w", err)
	}
	switch inner := c.(type) {
	case *indexConstraint:
		if inner.ix == ix {
			return &indexConstraint{m, ix, inner.pairs}, nil
		}
	case matroid.Uniform:
		return &indexConstraint{m, ix, &ix.pairs}, nil
	}
	return m, nil
}
