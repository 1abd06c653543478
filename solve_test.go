package maxsumdiv_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"maxsumdiv"
)

func randomItems(n int, seed int64) []maxsumdiv.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]maxsumdiv.Item, n)
	for i := range items {
		items[i] = maxsumdiv.Item{
			ID:     string(rune('A'+i%26)) + string(rune('a'+(i/26)%26)),
			Weight: rng.Float64(),
			Vector: []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
		}
	}
	return items
}

// TestSolveParallelDeterminism is the public-API half of the acceptance
// criterion: for every algorithm, serial (parallelism 1) and parallel runs
// return byte-identical solutions across seeds.
func TestSolveParallelDeterminism(t *testing.T) {
	algos := []maxsumdiv.Algorithm{
		maxsumdiv.AlgorithmGreedy,
		maxsumdiv.AlgorithmGreedyImproved,
		maxsumdiv.AlgorithmGollapudiSharma,
		maxsumdiv.AlgorithmOblivious,
		maxsumdiv.AlgorithmLocalSearch,
	}
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		ix, err := maxsumdiv.NewIndex(randomItems(450, seed), maxsumdiv.WithLambda(0.4))
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range algos {
			serial, err := ix.Query(ctx, maxsumdiv.Query{K: 12, Algorithm: algo, Parallelism: 1})
			if err != nil {
				t.Fatalf("algo %d serial: %v", algo, err)
			}
			for _, k := range []int{2, 8} {
				par, err := ix.Query(ctx, maxsumdiv.Query{K: 12, Algorithm: algo, Parallelism: k})
				if err != nil {
					t.Fatalf("algo %d parallelism %d: %v", algo, k, err)
				}
				if !reflect.DeepEqual(serial.Indices, par.Indices) ||
					serial.Value != par.Value ||
					serial.Quality != par.Quality ||
					serial.Dispersion != par.Dispersion {
					t.Fatalf("seed %d algo %d parallelism %d diverges:\nserial   %+v\nparallel %+v",
						seed, algo, k, serial, par)
				}
			}
		}
	}
}

func TestSolveDefaultsMatchGreedy(t *testing.T) {
	ix, err := maxsumdiv.NewIndex(randomItems(200, 7), maxsumdiv.WithLambda(0.4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	viaDefault, err := ix.Query(ctx, maxsumdiv.Query{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	viaGreedy, err := ix.Query(ctx, maxsumdiv.Query{K: 10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaDefault.Indices, viaGreedy.Indices) || viaDefault.Value != viaGreedy.Value {
		t.Fatalf("default query %+v, serial greedy %+v", viaDefault, viaGreedy)
	}
}

func TestSolveLocalSearchImproves(t *testing.T) {
	ix, err := maxsumdiv.NewIndex(randomItems(150, 9), maxsumdiv.WithLambda(0.4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	greedy, err := ix.Query(ctx, maxsumdiv.Query{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := ix.Query(ctx, maxsumdiv.Query{K: 8, Algorithm: maxsumdiv.AlgorithmLocalSearch})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Value < greedy.Value-1e-9 {
		t.Fatalf("local search (%.6f) worse than its greedy init (%.6f)", ls.Value, greedy.Value)
	}
}

func TestSolveRejectsUnknownAlgorithm(t *testing.T) {
	ix, err := maxsumdiv.NewIndex(randomItems(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(context.Background(), maxsumdiv.Query{K: 2, Algorithm: maxsumdiv.Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestLazyDistancesTransparent checks the memoizing metric backend returns
// the same solutions as the default dense materialization.
func TestLazyDistancesTransparent(t *testing.T) {
	items := randomItems(300, 5)
	dense, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.3))
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.3), maxsumdiv.WithLazyDistances())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := dense.Query(ctx, maxsumdiv.Query{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := lazy.Query(ctx, maxsumdiv.Query{K: 10, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Indices, got.Indices) || want.Value != got.Value {
		t.Fatalf("lazy %+v, dense %+v", got, want)
	}
}

// TestDynamicParallelDeterminism drives two sessions through the same
// perturbation script, one serial and one parallel, and requires identical
// maintained solutions throughout.
func TestDynamicParallelDeterminism(t *testing.T) {
	items := randomItems(420, 11)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.4))
	if err != nil {
		t.Fatal(err)
	}
	init, err := ix.Query(context.Background(), maxsumdiv.Query{K: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ix.NewDynamic(init.Indices)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ix.NewDynamic(init.Indices)
	if err != nil {
		t.Fatal(err)
	}
	parallel.SetParallelism(8)
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 30; step++ {
		u := rng.Intn(ix.Len())
		w := rng.Float64() * 2
		p1, err := serial.UpdateWeight(u, w)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := parallel.UpdateWeight(u, w)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serial.Maintain(p1); err != nil {
			t.Fatal(err)
		}
		if _, err := parallel.Maintain(p2); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Selection(), parallel.Selection()) {
			t.Fatalf("step %d: selections diverge: %v vs %v", step, serial.Selection(), parallel.Selection())
		}
		if serial.Value() != parallel.Value() {
			t.Fatalf("step %d: values diverge: %g vs %g", step, serial.Value(), parallel.Value())
		}
	}
}

// TestStreamParallelDeterminism feeds the same stream through serial and
// parallel windows and requires identical kept sets.
func TestStreamParallelDeterminism(t *testing.T) {
	mk := func(opts ...maxsumdiv.StreamOption) *maxsumdiv.Stream {
		s, err := maxsumdiv.NewStream(250, 0.5, maxsumdiv.EuclideanStreamDistance, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := mk()
	parallel := mk(maxsumdiv.WithStreamParallelism(8))
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 600; i++ {
		it := maxsumdiv.Item{
			Weight: rng.Float64(),
			Vector: []float64{rng.Float64(), rng.Float64()},
		}
		k1, _, err := serial.Offer(it)
		if err != nil {
			t.Fatal(err)
		}
		k2, _, err := parallel.Offer(it)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("offer %d: serial kept=%v, parallel kept=%v", i, k1, k2)
		}
	}
	if serial.Value() != parallel.Value() {
		t.Fatalf("window values diverge: %g vs %g", serial.Value(), parallel.Value())
	}
	s1, w1, r1 := serial.Stats()
	s2, w2, r2 := parallel.Stats()
	if s1 != s2 || w1 != w2 || r1 != r2 {
		t.Fatalf("stats diverge: (%d,%d,%d) vs (%d,%d,%d)", s1, w1, r1, s2, w2, r2)
	}
}
