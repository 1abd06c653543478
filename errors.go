package maxsumdiv

import "errors"

// Sentinel errors returned by NewIndex, Index.Query and the other Index
// methods. Wrap sites add instance detail with fmt.Errorf("%w: ...",
// Err...), so callers branch with errors.Is:
//
//	sol, err := ix.Query(ctx, maxsumdiv.Query{K: k})
//	switch {
//	case errors.Is(err, maxsumdiv.ErrKOutOfRange):
//		// client asked for more than the corpus holds
//	case errors.Is(err, context.DeadlineExceeded):
//		// the query's deadline fired mid-solve
//	}
//
// Context errors are not wrapped: a cancelled or expired query returns
// ctx.Err() itself, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work directly.
var (
	// ErrNoItems is returned by NewIndex and NewVectorIndex for an empty
	// item list.
	ErrNoItems = errors.New("maxsumdiv: no items")
	// ErrKOutOfRange is returned by Query and Index.Cardinality when the
	// requested cardinality is negative or exceeds the item count (unless
	// Query.ClampK was set).
	ErrKOutOfRange = errors.New("maxsumdiv: k out of range")
	// ErrInvalidLambda marks a query or index trade-off that is negative,
	// NaN, or infinite.
	ErrInvalidLambda = errors.New("maxsumdiv: invalid lambda")
	// ErrNeedsModularQuality is returned when an algorithm that is only
	// defined for the default modular (weight-sum) quality —
	// AlgorithmGollapudiSharma, MMR, Dynamic — runs against a custom
	// quality function.
	ErrNeedsModularQuality = errors.New("maxsumdiv: algorithm requires the default modular quality")
	// ErrQualityNotNormalized is returned when a custom quality function
	// has f(∅) ≠ 0; the paper's guarantees require normalized f.
	ErrQualityNotNormalized = errors.New("maxsumdiv: quality function is not normalized")
	// ErrUnknownAlgorithm is returned for an Algorithm value outside the
	// defined constants.
	ErrUnknownAlgorithm = errors.New("maxsumdiv: unknown algorithm")
	// ErrNilConstraint is returned by the constraint-taking entry points
	// for a nil Constraint.
	ErrNilConstraint = errors.New("maxsumdiv: nil constraint")
	// ErrConstraintAlgorithm is returned when Query.Constraint is combined
	// with an algorithm that cannot honor a general matroid (only
	// AlgorithmLocalSearch and AlgorithmExact can).
	ErrConstraintAlgorithm = errors.New("maxsumdiv: constraint requires AlgorithmLocalSearch or AlgorithmExact")
	// ErrConstraintMismatch is returned by Query, Index.GreedyMatroid and
	// Index.PartitionConstraint when a Constraint's ground size (or a
	// partition's length) disagrees with the index's item count.
	ErrConstraintMismatch = errors.New("maxsumdiv: constraint ground size mismatch")
	// ErrBackendConflict is returned by NewIndex when its options ask for
	// more than one distance backend: WithLazyDistances with WithFloat32,
	// or a vector backend (WithVectorBackendF32, WithVectorBackendInt8)
	// with WithLazyDistances, WithFloat32, or any distance other than
	// cosine (WithAngularDistance, WithEuclideanDistance,
	// WithManhattanDistance, WithDistanceMatrix, WithDistanceFunc). The
	// wrapped message names the conflict.
	ErrBackendConflict = errors.New("maxsumdiv: conflicting distance backend options")
	// ErrCandidateFilter is returned when Query.Candidates =
	// CandidatesPreFiltered is combined with something the pre-filter cannot
	// remap onto a candidate subset: a matroid Constraint, a custom quality
	// function (query- or index-level), or an index whose items carry no
	// vectors. Such queries must use the exact scan.
	ErrCandidateFilter = errors.New("maxsumdiv: candidate pre-filter unsupported for this query")
	// ErrNoVectors is returned when a vector distance is requested (or
	// defaulted) but items carry no vectors.
	ErrNoVectors = errors.New("maxsumdiv: items carry no vectors")
)
