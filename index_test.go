package maxsumdiv_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"maxsumdiv"
)

// testItems builds a deterministic vector corpus.
func testItems(n, dim int, seed int64) []maxsumdiv.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]maxsumdiv.Item, n)
	for i := range items {
		vec := make([]float64, dim)
		for k := range vec {
			vec[k] = rng.Float64()
		}
		items[i] = maxsumdiv.Item{ID: fmt.Sprintf("i%04d", i), Weight: rng.Float64(), Vector: vec}
	}
	return items
}

// TestIndexQueryLambdaPerCall: one Index answers different λ per query, and
// each answer matches a dedicated Index built with that λ as its default —
// rebuilding per trade-off and overriding λ on a shared backend must agree
// exactly.
func TestIndexQueryLambdaPerCall(t *testing.T) {
	items := testItems(120, 8, 1)
	ix, err := maxsumdiv.NewIndex(items)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, lambda := range []float64{0, 0.3, 1, 2.5} {
		got, err := ix.Query(ctx, maxsumdiv.Query{K: 10, Lambda: maxsumdiv.Ptr(lambda), Parallelism: 1})
		if err != nil {
			t.Fatalf("λ=%g: %v", lambda, err)
		}
		dedicated, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(lambda))
		if err != nil {
			t.Fatal(err)
		}
		want, err := dedicated.Query(ctx, maxsumdiv.Query{K: 10, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || len(got.Indices) != len(want.Indices) {
			t.Fatalf("λ=%g: query %v (%.17g) vs dedicated index %v (%.17g)",
				lambda, got.Indices, got.Value, want.Indices, want.Value)
		}
		for i := range got.Indices {
			if got.Indices[i] != want.Indices[i] {
				t.Fatalf("λ=%g: index %d differs: %d vs %d", lambda, i, got.Indices[i], want.Indices[i])
			}
		}
	}
}

// TestIndexQueryQualityPerCall: a custom quality function supplied on the
// query (not baked into the index) drives the solve.
func TestIndexQueryQualityPerCall(t *testing.T) {
	items := testItems(40, 4, 2)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	def, err := ix.Query(ctx, maxsumdiv.Query{K: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A coverage-style quality: value only the number of selected items
	// (ignores weights entirely).
	q := setFunc(func(S []int) float64 { return float64(len(S)) })
	alt, err := ix.Query(ctx, maxsumdiv.Query{K: 6, Quality: q, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(alt.Indices) != 6 {
		t.Fatalf("custom quality selected %d items", len(alt.Indices))
	}
	if alt.Quality != 6 {
		t.Fatalf("custom quality f(S) = %g, want 6", alt.Quality)
	}
	// The default query must still see the modular quality afterwards
	// (per-query quality must not leak into the shared index).
	def2, err := ix.Query(ctx, maxsumdiv.Query{K: 6, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if def.Value != def2.Value {
		t.Fatalf("default query drifted after a custom-quality query: %g vs %g", def.Value, def2.Value)
	}
}

type setFunc func(S []int) float64

func (f setFunc) Value(S []int) float64 { return f(S) }

// TestQuerySentinelErrors pins the typed-error contract.
func TestQuerySentinelErrors(t *testing.T) {
	if _, err := maxsumdiv.NewIndex(nil); !errors.Is(err, maxsumdiv.ErrNoItems) {
		t.Fatalf("empty items: %v, want ErrNoItems", err)
	}
	if _, err := maxsumdiv.NewIndex(testItems(4, 2, 3),
		maxsumdiv.WithFloat32(), maxsumdiv.WithLazyDistances()); !errors.Is(err, maxsumdiv.ErrBackendConflict) {
		t.Fatalf("backend combo: %v, want ErrBackendConflict", err)
	}
	if _, err := maxsumdiv.NewIndex([]maxsumdiv.Item{{ID: "a", Weight: 1}}); !errors.Is(err, maxsumdiv.ErrNoVectors) {
		t.Fatalf("vectorless: %v, want ErrNoVectors", err)
	}

	ix, err := maxsumdiv.NewIndex(testItems(20, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ix.Query(ctx, maxsumdiv.Query{K: 21}); !errors.Is(err, maxsumdiv.ErrKOutOfRange) {
		t.Fatalf("k > n: %v, want ErrKOutOfRange", err)
	}
	if _, err := ix.Query(ctx, maxsumdiv.Query{K: -1}); !errors.Is(err, maxsumdiv.ErrKOutOfRange) {
		t.Fatalf("k < 0: %v, want ErrKOutOfRange", err)
	}
	if sol, err := ix.Query(ctx, maxsumdiv.Query{K: 999, ClampK: true}); err != nil || len(sol.Indices) != 20 {
		t.Fatalf("clamped k: sol=%v err=%v", sol, err)
	}
	if _, err := ix.Query(ctx, maxsumdiv.Query{K: 4, Lambda: maxsumdiv.Ptr(math.NaN())}); !errors.Is(err, maxsumdiv.ErrInvalidLambda) {
		t.Fatalf("NaN λ: %v, want ErrInvalidLambda", err)
	}
	if _, err := ix.Query(ctx, maxsumdiv.Query{K: 4, Algorithm: maxsumdiv.Algorithm(99)}); !errors.Is(err, maxsumdiv.ErrUnknownAlgorithm) {
		t.Fatalf("bad algorithm: %v, want ErrUnknownAlgorithm", err)
	}
	q := setFunc(func(S []int) float64 { return float64(len(S)) })
	if _, err := ix.Query(ctx, maxsumdiv.Query{K: 4, Algorithm: maxsumdiv.AlgorithmGollapudiSharma, Quality: q}); !errors.Is(err, maxsumdiv.ErrNeedsModularQuality) {
		t.Fatalf("gs with custom quality: %v, want ErrNeedsModularQuality", err)
	}
	bad := setFunc(func(S []int) float64 { return float64(len(S)) + 1 })
	if _, err := ix.Query(ctx, maxsumdiv.Query{K: 4, Quality: bad}); !errors.Is(err, maxsumdiv.ErrQualityNotNormalized) {
		t.Fatalf("unnormalized quality: %v, want ErrQualityNotNormalized", err)
	}
	c, err := ix.Cardinality(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(ctx, maxsumdiv.Query{Constraint: c}); !errors.Is(err, maxsumdiv.ErrConstraintAlgorithm) {
		t.Fatalf("constraint with greedy: %v, want ErrConstraintAlgorithm", err)
	}
}

// TestQueryContextCancelPrompt: a query cancelled while the solver is mid
// stream must return ctx.Err() within a bounded delay — not run to
// completion. The quality function sleeps per marginal, so the full greedy
// would take several seconds; the cancelled query must come back fast.
func TestQueryContextCancelPrompt(t *testing.T) {
	items := testItems(300, 4, 5)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	slow := setFunc(func(S []int) float64 {
		time.Sleep(50 * time.Microsecond) // ~15ms per greedy round at n=300
		return float64(len(S))
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = ix.Query(ctx, maxsumdiv.Query{K: 200, Quality: slow, Parallelism: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Full solve ≈ 200 rounds × ≥15ms ≥ 3s; a prompt abort is well under 1s
	// even on a loaded CI box.
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled query took %v to return", elapsed)
	}
}

// TestQueryDeadlineExact: the exponential solver must honor a deadline via
// its node-count context polls; n = 55, k = 14 would run for a very long
// time otherwise.
func TestQueryDeadlineExact(t *testing.T) {
	items := testItems(55, 6, 7)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ix.Query(ctx, maxsumdiv.Query{K: 14, Algorithm: maxsumdiv.AlgorithmExact})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline-exceeded exact took %v to return", elapsed)
	}
}

// TestQueryDeadlineExactMatroid: the matroid-constrained exact enumeration
// must honor the deadline too (it runs a different DFS than the
// cardinality-constrained branch-and-bound).
func TestQueryDeadlineExactMatroid(t *testing.T) {
	items := testItems(60, 6, 8)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	partOf := make([]int, len(items))
	for i := range partOf {
		partOf[i] = i % 5
	}
	c, err := ix.PartitionConstraint(partOf, []int{3, 3, 3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = ix.Query(ctx, maxsumdiv.Query{Algorithm: maxsumdiv.AlgorithmExact, Constraint: c})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline-exceeded exact-matroid took %v to return", elapsed)
	}
}

// TestSharedIndexConcurrentQueries hammers one Index from many goroutines
// with different λ/k/algorithm combinations under -race, checking every
// result against a serially precomputed reference — concurrency must change
// nothing.
func TestSharedIndexConcurrentQueries(t *testing.T) {
	items := testItems(250, 6, 9)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithFloat32())
	if err != nil {
		t.Fatal(err)
	}
	type combo struct {
		k      int
		lambda float64
		algo   maxsumdiv.Algorithm
	}
	combos := []combo{
		{8, 0, maxsumdiv.AlgorithmGreedy},
		{12, 0.5, maxsumdiv.AlgorithmGreedy},
		{6, 1, maxsumdiv.AlgorithmGreedyImproved},
		{10, 0.25, maxsumdiv.AlgorithmGollapudiSharma},
		{9, 2, maxsumdiv.AlgorithmOblivious},
		{7, 0.75, maxsumdiv.AlgorithmLocalSearch},
	}
	ctx := context.Background()
	want := make([]*maxsumdiv.Solution, len(combos))
	for i, c := range combos {
		sol, err := ix.Query(ctx, maxsumdiv.Query{K: c.k, Lambda: maxsumdiv.Ptr(c.lambda), Algorithm: c.algo})
		if err != nil {
			t.Fatalf("reference combo %d: %v", i, err)
		}
		want[i] = sol
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 12; r++ {
				i := (g + r) % len(combos)
				c := combos[i]
				sol, err := ix.Query(ctx, maxsumdiv.Query{K: c.k, Lambda: maxsumdiv.Ptr(c.lambda), Algorithm: c.algo})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d combo %d: %w", g, i, err)
					return
				}
				if sol.Value != want[i].Value || len(sol.Indices) != len(want[i].Indices) {
					errs <- fmt.Errorf("goroutine %d combo %d: %v (%.17g) vs reference %v (%.17g)",
						g, i, sol.Indices, sol.Value, want[i].Indices, want[i].Value)
					return
				}
				for j := range sol.Indices {
					if sol.Indices[j] != want[i].Indices[j] {
						errs <- fmt.Errorf("goroutine %d combo %d: member %d differs", g, i, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
