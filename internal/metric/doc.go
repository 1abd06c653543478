// Package metric provides the metric-space substrate for max-sum
// diversification: distance oracles over an integer-indexed ground set,
// concrete metric constructions, caching backends, and validation
// utilities.
//
// # Paper context
//
// The paper (Sections 1–2) requires d to be a metric — the triangle
// inequality is what every approximation guarantee leans on — and its
// experiments use cosine distances over LETOR feature vectors (Section 7)
// and the {1,2}-valued metric of the hardness argument (Section 3). This
// package implements:
//
//   - Dense: the mutable triangular-matrix workhorse, supporting the
//     Section 6 dynamic distance perturbations via SetDistance.
//   - Cosine, Angular, Points (ℓ1/ℓ2/ℓp norms): vector-backed metrics.
//   - OneTwo: the {1,2} metric family of the paper's hardness section.
//   - Validate / ValidateRelaxed / ValidateSample: axiom checkers, including
//     the parameterised (α-relaxed) triangle inequality the conclusion
//     discusses.
//
// # Caching backends
//
// Computed metrics (vector norms, user functions) can be served through two
// lookup backends: Materialize copies a metric eagerly into a Dense matrix
// (the right call for small n), while Cached memoizes pairs lazily behind a
// mutex-striped cache safe for the concurrent scan workers of
// maxsumdiv/internal/engine (the right call at large n, where a dense
// matrix is quadratic memory). Memoize picks between them automatically.
//
// # Vector-native stores and dot kernels
//
// VecStore keeps only item vectors (float32, or int8-quantized with
// per-item scales) and computes cosine distances on demand — O(n·d)
// resident where every triangular backend is O(n²/2). Its row reads come in
// three grains: Distance (one pair), AccumulateRow (one row, through a
// bounded per-store/per-snapshot row cache; a snapshot carries rows its
// predecessors cached forward instead of recomputing them), and the
// RowBatcher interface, whose Rows computes all cache-missing rows of a
// query set in a single streaming pass over the stored vectors (each
// stored vector is loaded once and dotted against every query point while
// cache-hot).
//
// All of them funnel through two package-private dot kernels selected once
// per build (kernel.go): native builds bind an 8-lane multi-accumulator
// float32 kernel (~2× the scalar loop — FP adds pipeline across
// independent chains instead of serializing on one) and the scalar int8
// kernel (integer adds are single-cycle; unrolling measures slower). The
// `purego` build tag forces the scalar reference everywhere, and
// KernelVariant names the selected build so serving stats and bench
// reports can attribute measurements. Within one build every read path
// shares one kernel, and Distance rounds to float32 exactly as the row
// cache stores, so cached rows always hold bit for bit the values
// Distance returns; across builds float32 results agree to
// length-scaled rounding while int8 results are bitwise identical
// (int32 accumulation is associative).
package metric
