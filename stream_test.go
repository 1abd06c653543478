package maxsumdiv

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestPublicKnapsack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items, m := matrixItems(10, rng)
	ix, err := NewIndex(items, WithDistanceMatrix(m), WithLambda(0.3))
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, 10)
	for i := range costs {
		costs[i] = 0.5 + rng.Float64()
	}
	sol, err := ix.Knapsack(costs, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var used float64
	for _, u := range sol.Indices {
		used += costs[u]
	}
	if used > 2.5+1e-9 {
		t.Fatalf("budget exceeded: %g", used)
	}
	if math.Abs(sol.Value-ix.Objective(sol.Indices)) > 1e-9 {
		t.Error("reported value inconsistent")
	}
	if _, err := ix.Knapsack(costs[:3], 1, 1); err == nil {
		t.Error("short costs accepted")
	}
}

func TestPublicStream(t *testing.T) {
	s, err := NewStream(3, 0.5, EuclideanStreamDistance)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var lastVal float64
	for i := 0; i < 100; i++ {
		it := Item{
			ID:     fmt.Sprintf("it%d", i),
			Weight: rng.Float64(),
			Vector: []float64{rng.Float64(), rng.Float64()},
		}
		if _, _, err := s.Offer(it); err != nil {
			t.Fatal(err)
		}
		if s.Len() > 3 {
			t.Fatal("window exceeded p")
		}
		if s.Value() < lastVal-1e-9 {
			t.Fatal("stream value decreased")
		}
		lastVal = s.Value()
	}
	if got := len(s.Items()); got != 3 {
		t.Fatalf("window size %d", got)
	}
	seen, swaps, rejected := s.Stats()
	if seen != 100 || swaps+rejected != 97 {
		t.Fatalf("stats %d/%d/%d", seen, swaps, rejected)
	}
	if math.Abs(s.Value()-(s.Quality()+0.5*s.Dispersion())) > 1e-9 {
		t.Error("value decomposition wrong")
	}
	if _, err := NewStream(3, 0.5, nil); err == nil {
		t.Error("nil distance accepted")
	}
	if _, err := NewStream(0, 0.5, EuclideanStreamDistance); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestStreamDistanceHelpers(t *testing.T) {
	a := Item{Vector: []float64{1, 0}}
	b := Item{Vector: []float64{0, 1}}
	z := Item{Vector: []float64{0, 0}}
	if got := EuclideanStreamDistance(a, b); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("euclidean = %g", got)
	}
	if got := CosineStreamDistance(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("cosine orthogonal = %g", got)
	}
	if got := CosineStreamDistance(a, a); math.Abs(got) > 1e-12 {
		t.Errorf("cosine self = %g", got)
	}
	if got := CosineStreamDistance(a, z); got != 1 {
		t.Errorf("cosine zero vector = %g", got)
	}
}
