package maxsumdiv_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"maxsumdiv"
)

// vectorCorpus draws seeded unit-cube vectors and [0, 1) weights.
func vectorCorpus(seed int64, n, dim int) (vecs [][]float64, weights []float64) {
	rng := rand.New(rand.NewSource(seed))
	vecs = make([][]float64, n)
	weights = make([]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for k := range v {
			v[k] = 2*rng.Float64() - 1
		}
		vecs[i] = v
		weights[i] = rng.Float64()
	}
	return vecs, weights
}

// TestNewVectorIndexMatchesDense solves the same corpus on the default
// materialized cosine backend and the compute-on-demand vector backends.
// vec-f32 must agree with the float64 reference to float32 rounding;
// vec-int8 within its quantization budget (cross-evaluated under the exact
// objective so set-level differences are priced, not just tie-breaks).
func TestNewVectorIndexMatchesDense(t *testing.T) {
	vecs, weights := vectorCorpus(5, 300, 12)
	items := make([]maxsumdiv.Item, len(vecs))
	for i := range items {
		items[i] = maxsumdiv.Item{ID: string(rune('a'+i%26)) + string(rune('A'+i/26%26)), Weight: weights[i], Vector: vecs[i]}
	}
	exact, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exact.Query(context.Background(), maxsumdiv.Query{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		opt  maxsumdiv.Option
		tol  float64
	}{
		{"vec-f32", maxsumdiv.WithVectorBackendF32(), 1e-4},
		{"vec-int8", maxsumdiv.WithVectorBackendInt8(), 0.05},
	} {
		ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.5), tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if got := ix.BackendKind(); got != tc.kind {
			t.Fatalf("BackendKind() = %q, want %q", got, tc.kind)
		}
		sol, err := ix.Query(context.Background(), maxsumdiv.Query{K: 10})
		if err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		got := exact.Objective(sol.Indices)
		den := math.Max(1, math.Abs(ref.Value))
		if math.Abs(got-ref.Value)/den > tc.tol {
			t.Fatalf("%s solution value %g vs exact %g (tol %g)", tc.kind, got, ref.Value, tc.tol)
		}
	}
}

// TestNewVectorIndexBasics covers the vector-native constructor: synthesized
// IDs, nil weights, defaulted vec-f32 backend, and input validation.
func TestNewVectorIndexBasics(t *testing.T) {
	vecs, weights := vectorCorpus(6, 40, 6)
	ix, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.BackendKind(); got != "vec-f32" {
		t.Fatalf("default backend %q, want vec-f32", got)
	}
	sol, err := ix.Query(context.Background(), maxsumdiv.Query{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.IDs) != 5 || sol.IDs[0] == "" {
		t.Fatalf("solution IDs %v", sol.IDs)
	}
	// nil weights: pure diversification still solves.
	pure, err := maxsumdiv.NewVectorIndex(vecs, nil, maxsumdiv.WithVectorBackendInt8())
	if err != nil {
		t.Fatal(err)
	}
	if got := pure.BackendKind(); got != "vec-int8" {
		t.Fatalf("backend %q, want vec-int8", got)
	}
	if _, err := pure.Query(context.Background(), maxsumdiv.Query{K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := maxsumdiv.NewVectorIndex(nil, nil); !errors.Is(err, maxsumdiv.ErrNoItems) {
		t.Fatalf("empty vectors: %v", err)
	}
	if _, err := maxsumdiv.NewVectorIndex(vecs, weights[:3]); err == nil {
		t.Fatal("weight/vector length mismatch accepted")
	}
}

// TestVectorBackendConflicts pins the option matrix: vector backends are
// cosine-only and exclusive with the materialized/lazy backends.
func TestVectorBackendConflicts(t *testing.T) {
	items := backendItems(10, 3, 7)
	// conflict is what the message must name; a message naming an option
	// the caller did not pass misleads.
	for name, tc := range map[string]struct {
		opts     []maxsumdiv.Option
		conflict string
	}{
		"float32":   {[]maxsumdiv.Option{maxsumdiv.WithVectorBackendF32(), maxsumdiv.WithFloat32()}, "WithFloat32"},
		"lazy":      {[]maxsumdiv.Option{maxsumdiv.WithVectorBackendF32(), maxsumdiv.WithLazyDistances()}, "WithLazyDistances"},
		"euclidean": {[]maxsumdiv.Option{maxsumdiv.WithVectorBackendF32(), maxsumdiv.WithEuclideanDistance()}, "cosine distance only"},
		"matrix":    {[]maxsumdiv.Option{maxsumdiv.WithVectorBackendInt8(), maxsumdiv.WithDistanceMatrix([][]float64{{0}})}, "cosine distance only"},
	} {
		_, err := maxsumdiv.NewIndex(items, tc.opts...)
		if !errors.Is(err, maxsumdiv.ErrBackendConflict) {
			t.Fatalf("%s: err = %v, want ErrBackendConflict", name, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, tc.conflict) {
			t.Errorf("%s: %q does not name the conflict %q", name, msg, tc.conflict)
		}
		for _, other := range []string{"WithFloat32", "WithLazyDistances"} {
			if other != tc.conflict && strings.Contains(msg, other) {
				t.Errorf("%s: %q names %s, which the caller did not pass", name, msg, other)
			}
		}
	}
	noVec := []maxsumdiv.Item{{ID: "a", Weight: 1}, {ID: "b", Weight: 2}}
	if _, err := maxsumdiv.NewIndex(noVec, maxsumdiv.WithVectorBackendF32(), maxsumdiv.WithCosineDistance()); !errors.Is(err, maxsumdiv.ErrNoVectors) {
		t.Fatalf("vectorless items: %v, want ErrNoVectors", err)
	}
}

// TestVectorRowCacheStats: the vector backends expose row-cache counters,
// every other backend reports ok = false.
func TestVectorRowCacheStats(t *testing.T) {
	vecs, weights := vectorCorpus(8, 60, 6)
	ix, err := maxsumdiv.NewVectorIndex(vecs, weights)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := ix.VectorRowCacheStats(); !ok {
		t.Fatal("vector backend reported no row-cache stats")
	}
	if _, err := ix.Query(context.Background(), maxsumdiv.Query{K: 8}); err != nil {
		t.Fatal(err)
	}
	_, misses, _ := ix.VectorRowCacheStats()
	if misses == 0 {
		t.Fatal("a greedy solve computed no rows")
	}
	dense, err := maxsumdiv.NewIndex(backendItems(10, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := dense.VectorRowCacheStats(); ok {
		t.Fatal("dense backend reported row-cache stats")
	}
	if got := dense.BackendKind(); got != "dense-f64" {
		t.Fatalf("dense BackendKind() = %q", got)
	}
}

// TestCandidatesPreFilteredSmallEqualsExact: when the candidate target
// covers the whole ground set the pre-filter must be a no-op — identical
// members to the exact scan, not merely close.
func TestCandidatesPreFilteredSmallEqualsExact(t *testing.T) {
	vecs, weights := vectorCorpus(11, 200, 8)
	ix, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ix.Query(context.Background(), maxsumdiv.Query{K: 12})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := ix.Query(context.Background(), maxsumdiv.Query{K: 12, Candidates: maxsumdiv.CandidatesPreFiltered})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered.Indices) != len(exact.Indices) {
		t.Fatalf("filtered picked %d, exact %d", len(filtered.Indices), len(exact.Indices))
	}
	for i := range exact.Indices {
		if filtered.Indices[i] != exact.Indices[i] {
			t.Fatalf("members diverged at %d: %d vs %d (target covers n, must be exact)",
				i, filtered.Indices[i], exact.Indices[i])
		}
	}
	// Same members, but the two paths round differently: the full scan
	// folds float32-cached rows, the subset view sums float64 Distance
	// calls — so values agree to float32 rounding, not bit-exactly.
	if diff := math.Abs(filtered.Value - exact.Value); diff > 1e-6*math.Max(1, math.Abs(exact.Value)) {
		t.Fatalf("values diverged: %g vs %g", filtered.Value, exact.Value)
	}
}

// TestCandidatesPreFilteredAccuracy is the public-API accuracy property:
// pre-filtered greedy stays within 0.95 of exact-scan greedy on a corpus
// large enough that the filter genuinely drops most items.
func TestCandidatesPreFilteredAccuracy(t *testing.T) {
	vecs, weights := vectorCorpus(13, 4096, 16)
	ix, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{8, 32} {
		exact, err := ix.Query(context.Background(), maxsumdiv.Query{K: k})
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := ix.Query(context.Background(), maxsumdiv.Query{K: k, Candidates: maxsumdiv.CandidatesPreFiltered})
		if err != nil {
			t.Fatal(err)
		}
		if ratio := filtered.Value / exact.Value; ratio < 0.95 {
			t.Fatalf("k=%d: pre-filtered value %g is %.4f of exact %g", k, filtered.Value, ratio, exact.Value)
		}
	}
}

// TestCandidatesPreFilteredInitUnion: warm-starting local search with
// members the filter would drop must keep them available (the union rule).
func TestCandidatesPreFilteredInitUnion(t *testing.T) {
	vecs, weights := vectorCorpus(17, 1500, 8)
	ix, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	init := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sol, err := ix.Query(context.Background(), maxsumdiv.Query{
		K:               8,
		Algorithm:       maxsumdiv.AlgorithmLocalSearch,
		Candidates:      maxsumdiv.CandidatesPreFiltered,
		CandidateTarget: 600,
		Init:            init,
		MaxSwaps:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Indices) != 8 {
		t.Fatalf("picked %d members", len(sol.Indices))
	}
	for _, m := range sol.Indices {
		if m < 0 || m >= len(vecs) {
			t.Fatalf("member %d out of range", m)
		}
	}
}

// TestCandidatesPreFilteredRejections pins ErrCandidateFilter for the
// combinations the filter cannot remap.
func TestCandidatesPreFilteredRejections(t *testing.T) {
	vecs, weights := vectorCorpus(19, 100, 6)
	ix, err := maxsumdiv.NewVectorIndex(vecs, weights)
	if err != nil {
		t.Fatal(err)
	}
	card, err := ix.Cardinality(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(context.Background(), maxsumdiv.Query{
		Algorithm:  maxsumdiv.AlgorithmLocalSearch,
		Constraint: card,
		Candidates: maxsumdiv.CandidatesPreFiltered,
	}); !errors.Is(err, maxsumdiv.ErrCandidateFilter) {
		t.Fatalf("constraint: %v, want ErrCandidateFilter", err)
	}
	if _, err := ix.Query(context.Background(), maxsumdiv.Query{
		K:          5,
		Quality:    constQuality{},
		Candidates: maxsumdiv.CandidatesPreFiltered,
	}); !errors.Is(err, maxsumdiv.ErrCandidateFilter) {
		t.Fatalf("custom quality: %v, want ErrCandidateFilter", err)
	}
	// An index without vectors cannot pre-filter.
	plain, err := maxsumdiv.NewIndex(
		[]maxsumdiv.Item{{ID: "a", Weight: 1}, {ID: "b", Weight: 2}},
		maxsumdiv.WithDistanceMatrix([][]float64{{0, 1}, {1, 0}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Query(context.Background(), maxsumdiv.Query{
		K: 1, Candidates: maxsumdiv.CandidatesPreFiltered,
	}); !errors.Is(err, maxsumdiv.ErrCandidateFilter) {
		t.Fatalf("vectorless: %v, want ErrCandidateFilter", err)
	}
	// Bounds errors surface the same sentinel as the exact path.
	if _, err := ix.Query(context.Background(), maxsumdiv.Query{
		K: 1000, Candidates: maxsumdiv.CandidatesPreFiltered,
	}); !errors.Is(err, maxsumdiv.ErrKOutOfRange) {
		t.Fatalf("oversized k: %v, want ErrKOutOfRange", err)
	}
}

// constQuality is a trivially normalized custom quality function.
type constQuality struct{}

func (constQuality) Value(S []int) float64 { return float64(len(S)) }

// TestVecLocalSearchTerminates is the regression test for local search on
// the vector backends with tied weights. d_u(S) is folded from the row
// cache, so a swap gain that subtracted a differently rounded Distance
// carried a residue of λ·(float32(d) − d) ≈ 1e-8 — above the 1e-12
// improvement guard in both directions — and a K = 1 search swapped two
// tied items back and forth until the context deadline. With every read
// path agreeing on each distance, the greedy start is already locally
// optimal.
func TestVecLocalSearchTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n, dim = 50, 16
	vecs := make([][]float64, n)
	weights := make([]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for k := range vecs[i] {
			vecs[i][k] = rng.NormFloat64()
		}
		weights[i] = float64(rng.Intn(4)) / 4 // quarters: many exact ties
	}
	for _, opt := range []maxsumdiv.Option{maxsumdiv.WithVectorBackendF32(), maxsumdiv.WithVectorBackendInt8()} {
		ix, err := maxsumdiv.NewVectorIndex(vecs, weights, opt)
		if err != nil {
			t.Fatal(err)
		}
		lam := 0.25
		for _, maxSwaps := range []int{0, 1000} {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			sol, err := ix.Query(ctx, maxsumdiv.Query{K: 1, Lambda: &lam, Algorithm: maxsumdiv.AlgorithmLocalSearch, MaxSwaps: maxSwaps})
			cancel()
			if err != nil {
				t.Fatalf("%s, MaxSwaps %d: %v", ix.BackendKind(), maxSwaps, err)
			}
			if sol.Swaps != 0 {
				t.Fatalf("%s, MaxSwaps %d: local search applied %d swaps from a locally optimal start", ix.BackendKind(), maxSwaps, sol.Swaps)
			}
		}
	}
}
