package maxsumdiv_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"maxsumdiv"
)

// backendItems builds a deterministic vector corpus.
func backendItems(n, dim int, seed int64) []maxsumdiv.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]maxsumdiv.Item, n)
	for i := range items {
		vec := make([]float64, dim)
		for k := range vec {
			vec[k] = rng.Float64()
		}
		items[i] = maxsumdiv.Item{ID: string(rune('a'+i%26)) + string(rune('0'+i/26%10)), Weight: rng.Float64(), Vector: vec}
	}
	return items
}

// TestWithFloat32MatchesDefault solves the same instance on the default
// float64 matrix and the float32 blocked backend across distance choices;
// the objective values must agree to float32 rounding (evaluated per
// backend — the selected sets may differ only on float32-scale ties).
func TestWithFloat32MatchesDefault(t *testing.T) {
	items := backendItems(120, 6, 42)
	ctx := context.Background()
	for _, opt := range []struct {
		name string
		o    maxsumdiv.Option
	}{
		{"cosine", maxsumdiv.WithCosineDistance()},
		{"angular", maxsumdiv.WithAngularDistance()},
		{"euclidean", maxsumdiv.WithEuclideanDistance()},
		{"manhattan", maxsumdiv.WithManhattanDistance()},
	} {
		p64, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.4), opt.o)
		if err != nil {
			t.Fatalf("%s: %v", opt.name, err)
		}
		p32, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.4), opt.o, maxsumdiv.WithFloat32())
		if err != nil {
			t.Fatalf("%s float32: %v", opt.name, err)
		}
		s64, err := p64.Query(ctx, maxsumdiv.Query{K: 12, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		s32, err := p32.Query(ctx, maxsumdiv.Query{K: 12, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Cross-evaluate the float32 pick under the float64 objective.
		v64, v32 := s64.Value, p64.Objective(s32.Indices)
		den := math.Max(1, math.Max(math.Abs(v64), math.Abs(v32)))
		if math.Abs(v64-v32)/den > 1e-4 {
			t.Fatalf("%s: float32 solution value %g vs float64 %g", opt.name, v32, v64)
		}
		if len(s32.Indices) != 12 {
			t.Fatalf("%s: float32 picked %d items", opt.name, len(s32.Indices))
		}
	}
}

// TestWithFloat32DistanceMatrix covers the explicit-matrix path.
func TestWithFloat32DistanceMatrix(t *testing.T) {
	m := [][]float64{
		{0, 1, 2},
		{1, 0, 1.5},
		{2, 1.5, 0},
	}
	items := []maxsumdiv.Item{{ID: "a", Weight: 1}, {ID: "b", Weight: 0.5}, {ID: "c", Weight: 0.2}}
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithDistanceMatrix(m), maxsumdiv.WithFloat32())
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Distance(0, 2); got != 2 {
		t.Fatalf("d(0,2) = %g, want 2", got)
	}
	sol, err := ix.Query(context.Background(), maxsumdiv.Query{K: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.IDs) != 2 {
		t.Fatalf("picked %v", sol.IDs)
	}
}

// TestWithFloat32RejectsLazy pins the mutual exclusion with the striped
// cache.
func TestWithFloat32RejectsLazy(t *testing.T) {
	items := backendItems(10, 3, 1)
	if _, err := maxsumdiv.NewIndex(items, maxsumdiv.WithFloat32(), maxsumdiv.WithLazyDistances()); err == nil {
		t.Fatal("WithFloat32 + WithLazyDistances did not error")
	}
}

// TestWithFloat32NoCacheStats: the float32 backend is fully materialized, so
// DistanceCacheStats must report ok = false.
func TestWithFloat32NoCacheStats(t *testing.T) {
	items := backendItems(50, 4, 2)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithFloat32())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := ix.DistanceCacheStats(); ok {
		t.Fatal("float32 backend reported striped-cache stats")
	}
}

// TestDistanceCacheStatsDuringParallelSolve polls DistanceCacheStats from
// concurrent goroutines while a parallel solve hammers the striped cache.
// Run under -race (CI does) this is the regression fence for the Cached
// counter audit: every counter read must go through atomics or the stripe
// locks, never a bare field. It also sanity-checks counter monotonicity.
func TestDistanceCacheStatsDuringParallelSolve(t *testing.T) {
	// Large enough that Memoize picks the striped cache (> eagerLimit).
	items := backendItems(1200, 8, 3)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.3), maxsumdiv.WithLazyDistances())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := ix.DistanceCacheStats(); !ok {
		t.Fatal("expected the striped cache backend at n=1200")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastComputed, lastLookups int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				stored, computed, lookups, ok := ix.DistanceCacheStats()
				if !ok {
					t.Error("cache stats vanished mid-solve")
					return
				}
				if computed < lastComputed || lookups < lastLookups || stored < 0 {
					t.Errorf("counters regressed: stored=%d computed=%d (last %d) lookups=%d (last %d)",
						stored, computed, lastComputed, lookups, lastLookups)
					return
				}
				lastComputed, lastLookups = computed, lookups
			}
		}()
	}
	if _, err := ix.Query(context.Background(), maxsumdiv.Query{K: 24, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	_, computed, lookups, _ := ix.DistanceCacheStats()
	if computed == 0 || lookups < computed {
		t.Fatalf("implausible final counters: computed=%d lookups=%d", computed, lookups)
	}
}
