package maxsumdiv

import (
	"context"
	"fmt"
	"sort"
	"time"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// Query parameterizes one solve against an Index. Everything the paper's
// objective φ(S) = f(S) + λ·Σ d(u,v) does not fix at corpus time is a
// query-time knob: the cardinality, the trade-off λ, the quality function,
// the algorithm, and the matroid constraint. The zero value selects k = 0
// (an empty selection) with the index defaults.
type Query struct {
	// K is how many items to select. Must lie in [0, Len()] unless ClampK
	// is set, which truncates oversized requests to the item count (the
	// serving-layer convention: k is client-supplied, n is whatever
	// survived the latest churn).
	K int
	// Lambda overrides the index's quality/diversity trade-off for this
	// query; nil keeps the index default. 0 is meaningful (pure quality) —
	// use Ptr(0.0).
	Lambda *float64
	// Algorithm selects the solver (default AlgorithmGreedy).
	Algorithm Algorithm
	// Quality replaces the index's quality function for this query. It
	// must be normalized (f(∅) = 0) and, for the guarantees, monotone
	// submodular; it must be safe for concurrent calls unless
	// Parallelism is 1. Algorithms that need the modular default
	// (AlgorithmGollapudiSharma) reject queries carrying one.
	Quality SetFunction
	// Constraint, when non-nil, replaces the |S| ≤ K cardinality
	// constraint with a matroid (build with Index.Cardinality,
	// PartitionConstraint, TransversalConstraint, TruncatedConstraint, or
	// any custom Constraint). Only AlgorithmLocalSearch (Theorem 2) and
	// AlgorithmExact honor general matroids.
	Constraint Constraint
	// Init seeds AlgorithmLocalSearch with an initial selection (e.g. a
	// previous query's Indices). Nil uses the default seeding: the greedy
	// solution under |S| ≤ K, or the Section 5 best-pair basis under a
	// Constraint.
	Init []int
	// MaxSwaps caps AlgorithmLocalSearch's applied swaps (0 = unlimited).
	MaxSwaps int
	// MinGain and RelEps are AlgorithmLocalSearch's improvement
	// thresholds: the minimum absolute gain per swap, and the paper's
	// ε-improvement rule requiring a (1+RelEps) factor.
	MinGain, RelEps float64
	// TimeBudget bounds AlgorithmLocalSearch's wall clock (0 = unlimited).
	// Prefer a context deadline: it also covers the greedy and exact
	// solvers.
	TimeBudget time.Duration
	// Candidates selects the scan scope: CandidatesExact (the default)
	// considers every item; CandidatesPreFiltered first reduces the ground
	// set to a random-projection candidate subset (diverse directions plus
	// the globally heaviest items) and solves over it — O(candidates·k)
	// scan work instead of O(n·k), the mode that keeps per-query cost
	// sublinear on vector-backend corpora. The subset comes from a sign
	// sketch of the item vectors, built once per index and signature width
	// (the width follows the candidate target) on the first pre-filtered
	// query that needs it: an O(n·bits·d) pass that reads the caller's item
	// vectors at that moment, whose result the index then holds for its
	// lifetime (about 8 bytes per item per width). Pre-filtered queries
	// need item vectors and the default modular quality, and reject matroid
	// constraints (ErrCandidateFilter); solutions index into the full item
	// list as usual. K = 0 answers as the exact scan does and builds
	// nothing.
	Candidates CandidateMode
	// CandidateTarget overrides the pre-filter's candidate count; 0 applies
	// the default heuristic max(512, 64·K) capped at Len(). Larger targets
	// trade scan time for accuracy; targets below K are raised to K.
	CandidateTarget int
	// Parallelism overrides the scan-worker count for this query: 0 (the
	// default) reuses the index's cached pool, 1 forces a serial solve,
	// any other value selects that many workers (< 0 = GOMAXPROCS). The
	// scan-based solvers return the identical solution at every setting;
	// AlgorithmExact always returns an optimal set, but when the optimum
	// is not unique its parallel search may settle a tie differently than
	// the serial one.
	Parallelism int
	// ClampK treats K > Len() as K = Len() instead of ErrKOutOfRange.
	ClampK bool
}

// CandidateMode selects how much of the ground set a query scans.
type CandidateMode int

const (
	// CandidatesExact scans every item — the default, and the only mode
	// that preserves the solvers' approximation guarantees exactly.
	CandidatesExact CandidateMode = iota
	// CandidatesPreFiltered scans a random-projection candidate subset;
	// see Query.Candidates.
	CandidatesPreFiltered
)

// Ptr returns a pointer to v — a literal-friendly way to set the optional
// pointer fields of Query, e.g. Query{K: 10, Lambda: maxsumdiv.Ptr(0.5)}.
func Ptr[T any](v T) *T { return &v }

// coreAlgo maps the public Algorithm to the solver's enum.
func coreAlgo(a Algorithm) (core.Algo, error) {
	switch a {
	case AlgorithmGreedy:
		return core.AlgoGreedy, nil
	case AlgorithmGreedyImproved:
		return core.AlgoGreedyImproved, nil
	case AlgorithmGollapudiSharma:
		return core.AlgoGollapudiSharma, nil
	case AlgorithmOblivious:
		return core.AlgoOblivious, nil
	case AlgorithmLocalSearch:
		return core.AlgoLocalSearch, nil
	case AlgorithmExact:
		return core.AlgoExact, nil
	default:
		return 0, fmt.Errorf("%w: %d", ErrUnknownAlgorithm, a)
	}
}

// Query solves one query against the index. The heavy structure — the
// distance backend, the worker pool, the solver scratch — is reused from
// the index, so a query's cost is the solver's scan work alone; nothing is
// rebuilt per call, and concurrent queries with different λ, k, quality, or
// algorithm are safe on one shared Index.
//
// ctx cancels the solve mid-scan: the engine polls it once per scan stride
// and Query returns ctx.Err() (context.Canceled or
// context.DeadlineExceeded, unwrapped). A ctx deadline is the intended
// guard for AlgorithmExact behind a serving path.
func (ix *Index) Query(ctx context.Context, q Query) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q.Candidates == CandidatesPreFiltered {
		return ix.queryPreFiltered(ctx, q)
	}
	algo, err := coreAlgo(q.Algorithm)
	if err != nil {
		return nil, err
	}
	if q.Constraint != nil {
		if algo != core.AlgoLocalSearch && algo != core.AlgoExact {
			return nil, ErrConstraintAlgorithm
		}
		if err := ix.checkConstraint(q.Constraint); err != nil {
			return nil, err
		}
	}
	spec, lambda, err := ix.resolve(ctx, q, algo)
	if err != nil {
		return nil, err
	}
	spec.Init = q.Init

	quality, modular := ix.quality, ix.modular
	if q.Quality != nil {
		quality = adaptQuality(q.Quality, ix.Len())
		if v := quality.Value(nil); v != 0 {
			return nil, fmt.Errorf("%w: f(∅) = %g", ErrQualityNotNormalized, v)
		}
		modular = nil
	}
	if spec.Algo.RequiresModular() && modular == nil {
		return nil, ErrNeedsModularQuality
	}

	obj, err := core.NewObjectiveCached(quality, lambda, ix.dist, ix.scratch)
	if err != nil {
		return nil, wrapLambdaErr(err)
	}
	// Only these two open with a best pair; the frontiers serve the
	// index's modular quality alone.
	cached := modular != nil && (spec.Algo == core.AlgoGreedyImproved || spec.Algo == core.AlgoLocalSearch)
	if cached {
		obj = obj.WithPairCache(&ix.pairs)
	}
	if q.Constraint != nil {
		spec.Constraint = ix.solveConstraint(q.Constraint, cached)
	}

	sol, err := core.Solve(obj, spec)
	if err != nil {
		return nil, err
	}
	return ix.wrap(sol), nil
}

// resolve turns the request fields both scan scopes share into the solver
// spec and the λ to solve with: K after ClampK and its range check (skipped
// under a Constraint, whose rank fixes the size), the scan pool that
// Parallelism selects, and the local-search limits. Init stays with the
// caller, which may remap it; the caller also orders its own checks around
// this call, so each scope keeps its error precedence.
func (ix *Index) resolve(ctx context.Context, q Query, algo core.Algo) (core.Spec, float64, error) {
	spec := core.Spec{
		Algo:       algo,
		Ctx:        ctx,
		MaxSwaps:   q.MaxSwaps,
		TimeBudget: q.TimeBudget,
		MinGain:    q.MinGain,
		RelEps:     q.RelEps,
	}
	if q.Constraint == nil {
		k := q.K
		if q.ClampK && k > ix.Len() {
			k = ix.Len()
		}
		if k < 0 || k > ix.Len() {
			return spec, 0, fmt.Errorf("%w: k = %d with %d items", ErrKOutOfRange, q.K, ix.Len())
		}
		spec.K = k
	}
	switch q.Parallelism {
	case 0:
		spec.Pool = ix.pool
	case 1:
		spec.Pool = nil // serial
	default:
		spec.Pool = engine.New(q.Parallelism)
	}
	lambda := ix.lambda
	if q.Lambda != nil {
		lambda = *q.Lambda
	}
	return spec, lambda, nil
}

// queryPreFiltered solves a query over a random-projection candidate subset
// instead of the full ground set: the index's candidate.Filter picks
// max(512, 64·k)-ish indices (directionally spread, top weights always
// included) from the sketch it built for this width on first use and holds
// for the index's lifetime; the solve runs on an index-remapped view of the
// backend and weights — no backend is built — and members map back to
// full-index positions, so the returned Solution is indistinguishable in
// shape from an exact-scan one. Query.Init members are unioned into the
// candidate set, so warm-starting local search from a previous solution
// never loses members to the filter.
func (ix *Index) queryPreFiltered(ctx context.Context, q Query) (*Solution, error) {
	algo, err := coreAlgo(q.Algorithm)
	if err != nil {
		return nil, err
	}
	if q.Constraint != nil {
		return nil, fmt.Errorf("%w: matroid constraints need the exact scan", ErrCandidateFilter)
	}
	if q.Quality != nil || ix.modular == nil {
		return nil, fmt.Errorf("%w: custom quality functions need the exact scan", ErrCandidateFilter)
	}
	if ix.filter == nil {
		return nil, fmt.Errorf("%w: items carry no vectors", ErrCandidateFilter)
	}
	spec, lambda, err := ix.resolve(ctx, q, algo)
	if err != nil {
		return nil, err
	}
	k := spec.K
	if k == 0 {
		// Nothing to pick: answer as the exact scan does, sketch untouched.
		q.Candidates = CandidatesExact
		return ix.Query(ctx, q)
	}
	target := q.CandidateTarget
	if target > 0 && target < k {
		target = k
	}
	cands := ix.filter.Select(k, target)
	if len(q.Init) > 0 {
		// Union Init into the candidate set, preserving sorted order.
		have := make(map[int]bool, len(cands))
		for _, c := range cands {
			have[c] = true
		}
		extra := false
		for _, u := range q.Init {
			if u < 0 || u >= ix.Len() {
				return nil, fmt.Errorf("maxsumdiv: init member %d out of range [0,%d)", u, ix.Len())
			}
			if !have[u] {
				have[u] = true
				cands = append(cands, u)
				extra = true
			}
		}
		if extra {
			sort.Ints(cands)
		}
	}
	m := len(cands)
	subW := make([]float64, m)
	for i, idx := range cands {
		subW[i] = ix.modular.Weight(idx)
	}
	mod, err := setfunc.NewModular(subW)
	if err != nil {
		return nil, fmt.Errorf("maxsumdiv: %w", err)
	}
	view := metric.Func{N: m, F: func(i, j int) float64 {
		return ix.dist.Distance(cands[i], cands[j])
	}}
	obj, err := core.NewObjective(mod, lambda, view)
	if err != nil {
		return nil, wrapLambdaErr(err)
	}
	if len(q.Init) > 0 {
		posOf := make(map[int]int, m)
		for i, c := range cands {
			posOf[c] = i
		}
		init := make([]int, len(q.Init))
		for i, u := range q.Init {
			init[i] = posOf[u]
		}
		spec.Init = init
	}

	sol, err := core.Solve(obj, spec)
	if err != nil {
		return nil, err
	}
	for i, mi := range sol.Members {
		sol.Members[i] = cands[mi]
	}
	return ix.wrap(sol), nil
}

// wrap converts a core solution into the public form, resolving item IDs.
func (ix *Index) wrap(sol *core.Solution) *Solution {
	ids := make([]string, len(sol.Members))
	for i, m := range sol.Members {
		ids[i] = ix.items[m].ID
	}
	return &Solution{
		Indices:    sol.Members,
		IDs:        ids,
		Value:      sol.Value,
		Quality:    sol.FValue,
		Dispersion: sol.Dispersion,
		Swaps:      sol.Swaps,
	}
}
