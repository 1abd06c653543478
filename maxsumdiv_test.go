package maxsumdiv

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func testItems(n int, rng *rand.Rand) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID:     string(rune('a' + i%26)),
			Weight: rng.Float64(),
			Vector: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
		}
	}
	return items
}

func matrixItems(n int, rng *rand.Rand) ([]Item, [][]float64) {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: string(rune('A' + i)), Weight: rng.Float64()}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 1 + rng.Float64()
			m[i][j], m[j][i] = d, d
		}
	}
	return items, m
}

func TestNewIndexValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewIndex(nil); err == nil {
		t.Error("empty items accepted")
	}
	// No vectors and no explicit distance.
	if _, err := NewIndex([]Item{{ID: "x", Weight: 1}}); err == nil {
		t.Error("vectorless items without explicit distance accepted")
	}
	// Negative weight.
	if _, err := NewIndex([]Item{{ID: "x", Weight: -1, Vector: []float64{1}}}); err == nil {
		t.Error("negative weight accepted")
	}
	// Negative lambda.
	if _, err := NewIndex(testItems(3, rng), WithLambda(-1)); err == nil {
		t.Error("negative lambda accepted")
	}
	// Matrix size mismatch.
	items, m := matrixItems(4, rng)
	if _, err := NewIndex(items[:3], WithDistanceMatrix(m)); err == nil {
		t.Error("matrix size mismatch accepted")
	}
	// Mixed: vector distance but an item without vectors.
	mixed := []Item{{ID: "a", Vector: []float64{1}}, {ID: "b"}}
	if _, err := NewIndex(mixed, WithCosineDistance()); err == nil {
		t.Error("missing vector accepted")
	}
	// Nil distance func.
	if _, err := NewIndex(items, WithDistanceFunc(nil)); err == nil {
		t.Error("nil distance func accepted")
	}
	// Metric validation catches violations.
	bad := func(i, j int) float64 {
		if (i == 0 && j == 1) || (i == 1 && j == 0) {
			return 100
		}
		return 1
	}
	if _, err := NewIndex(items, WithDistanceFunc(bad), WithMetricValidation()); err == nil {
		t.Error("non-metric accepted under WithMetricValidation")
	}
	if _, err := NewIndex(items, WithDistanceFunc(bad)); err != nil {
		t.Error("non-metric rejected without WithMetricValidation")
	}
}

func TestIndexAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items, m := matrixItems(5, rng)
	ix, err := NewIndex(items, WithDistanceMatrix(m), WithLambda(0.3), WithMetricValidation())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 5 || ix.Lambda() != 0.3 {
		t.Error("accessors wrong")
	}
	if got := ix.Distance(0, 1); got != m[0][1] {
		t.Errorf("Distance = %g, want %g", got, m[0][1])
	}
	cp := ix.Items()
	cp[0].Weight = 999
	if ix.Items()[0].Weight == 999 {
		t.Error("Items returned shared storage")
	}
	want := items[0].Weight + items[1].Weight + 0.3*m[0][1]
	if got := ix.Objective([]int{0, 1}); math.Abs(got-want) > 1e-12 {
		t.Errorf("Objective = %g, want %g", got, want)
	}
}

func TestDistanceChoices(t *testing.T) {
	items := []Item{
		{ID: "a", Weight: 1, Vector: []float64{1, 0}},
		{ID: "b", Weight: 1, Vector: []float64{0, 1}},
		{ID: "c", Weight: 1, Vector: []float64{3, 4}},
	}
	cases := []struct {
		name string
		opt  Option
		d01  float64
	}{
		{"cosine", WithCosineDistance(), 1},
		{"angular", WithAngularDistance(), 0.5},
		{"euclidean", WithEuclideanDistance(), math.Sqrt2},
		{"manhattan", WithManhattanDistance(), 2},
	}
	for _, tc := range cases {
		ix, err := NewIndex(items, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := ix.Distance(0, 1); math.Abs(got-tc.d01) > 1e-12 {
			t.Errorf("%s: d(0,1) = %g, want %g", tc.name, got, tc.d01)
		}
	}
	// Default (vectors present) is cosine.
	ix, err := NewIndex(items)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Distance(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("default distance = %g, want cosine (1)", got)
	}
}

func TestGreedySolvers(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	items, m := matrixItems(12, rng)
	ix, err := NewIndex(items, WithDistanceMatrix(m), WithLambda(0.2))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ix.Query(ctx, Query{K: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Indices) != 4 || len(g.IDs) != 4 {
		t.Fatalf("greedy returned %v", g)
	}
	if math.Abs(g.Value-(g.Quality+0.2*g.Dispersion)) > 1e-9 {
		t.Error("Value ≠ Quality + λ·Dispersion")
	}
	if math.Abs(g.Value-ix.Objective(g.Indices)) > 1e-9 {
		t.Error("reported value disagrees with Objective")
	}
	gi, err := ix.Query(ctx, Query{K: 4, Algorithm: AlgorithmGreedyImproved, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := ix.Query(ctx, Query{K: 4, Algorithm: AlgorithmGollapudiSharma, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ix.Query(ctx, Query{K: 4, Algorithm: AlgorithmExact})
	if err != nil {
		t.Fatal(err)
	}
	for name, sol := range map[string]*Solution{"greedy": g, "improved": gi, "gs": gs} {
		if sol.Value > opt.Value+1e-9 {
			t.Errorf("%s exceeds optimum", name)
		}
	}
	// Theorem 1 on the public surface.
	if g.Value < opt.Value/2-1e-9 {
		t.Errorf("greedy below half-optimal: %g < %g/2", g.Value, opt.Value)
	}
	// IDs map to indices.
	for i, idx := range g.Indices {
		if g.IDs[i] != items[idx].ID {
			t.Error("ID mapping wrong")
		}
	}
}

type customQuality struct{ n int }

func (c customQuality) Value(S []int) float64 {
	// Coverage-style: min(|S|, 3) — normalized monotone submodular.
	if len(S) > 3 {
		return 3
	}
	return float64(len(S))
}

func TestCustomQuality(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(4))
	items, m := matrixItems(8, rng)
	ix, err := NewIndex(items, WithDistanceMatrix(m), WithQuality(customQuality{n: 8}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ix.Query(ctx, Query{K: 4, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Quality-3) > 1e-12 {
		t.Errorf("Quality = %g, want 3 (capped)", g.Quality)
	}
	// Modular-only solvers must refuse.
	if _, err := ix.Query(ctx, Query{K: 3, Algorithm: AlgorithmGollapudiSharma, Parallelism: 1}); err == nil {
		t.Error("GollapudiSharma accepted custom quality")
	}
	if _, err := ix.MMR(0.5, 3); err == nil {
		t.Error("MMR accepted custom quality")
	}
	if _, err := ix.NewDynamic([]int{0}); err == nil {
		t.Error("Dynamic accepted custom quality")
	}
}

type badQuality struct{}

func (badQuality) Value(S []int) float64 { return float64(len(S)) + 1 }

func TestUnnormalizedQualityRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items, m := matrixItems(4, rng)
	if _, err := NewIndex(items, WithDistanceMatrix(m), WithQuality(badQuality{})); err == nil {
		t.Error("unnormalized quality accepted")
	}
}

func TestLocalSearchAndConstraints(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(6))
	items, m := matrixItems(10, rng)
	ix, err := NewIndex(items, WithDistanceMatrix(m), WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}

	card, err := ix.Cardinality(4)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := ix.Query(ctx, Query{Algorithm: AlgorithmLocalSearch, Constraint: card, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ix.Query(ctx, Query{Algorithm: AlgorithmExact, Constraint: card})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Value < opt.Value/2-1e-9 {
		t.Errorf("Theorem 2 violated on public surface: %g < %g/2", ls.Value, opt.Value)
	}

	// Partition constraint.
	partOf := []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	part, err := ix.PartitionConstraint(partOf, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ix.Query(ctx, Query{Algorithm: AlgorithmLocalSearch, Constraint: part, MaxSwaps: 50, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Indices) != 4 {
		t.Errorf("partition basis size %d, want 4", len(sol.Indices))
	}
	count := map[int]int{}
	for _, idx := range sol.Indices {
		count[partOf[idx]]++
	}
	if count[0] > 2 || count[1] > 2 {
		t.Error("partition caps violated")
	}

	// Transversal constraint.
	tv, err := ix.TransversalConstraint([][]int{{0, 1, 2}, {2, 3}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	sol, err = ix.Query(ctx, Query{Algorithm: AlgorithmLocalSearch, Constraint: tv, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Indices) != tv.Rank() {
		t.Errorf("transversal basis size %d, want %d", len(sol.Indices), tv.Rank())
	}

	// Truncation.
	trunc, err := ix.TruncatedConstraint(part, 3)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.Rank() != 3 {
		t.Errorf("truncated rank %d, want 3", trunc.Rank())
	}

	// Greedy under matroid (heuristic).
	gm, err := ix.GreedyMatroid(part)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Independent(gm.Indices) {
		t.Error("GreedyMatroid violated the constraint")
	}

	// Error paths.
	if _, err := ix.GreedyMatroid(nil); err == nil {
		t.Error("nil constraint accepted by GreedyMatroid")
	}
	if _, err := ix.GreedyMatroid(everyOther{n: 7}); !errors.Is(err, ErrConstraintMismatch) {
		t.Errorf("GreedyMatroid over 7 of 10 items: %v, want ErrConstraintMismatch", err)
	}
	if _, err := ix.TruncatedConstraint(nil, 3); !errors.Is(err, ErrNilConstraint) {
		t.Errorf("TruncatedConstraint(nil): %v, want ErrNilConstraint", err)
	}
	if _, err := ix.Cardinality(-1); err == nil {
		t.Error("negative cardinality accepted")
	}
	if _, err := ix.PartitionConstraint([]int{0}, []int{1}); err == nil {
		t.Error("short partOf accepted")
	}
	if _, err := ix.TransversalConstraint([][]int{{99}}); err == nil {
		t.Error("out-of-range transversal accepted")
	}
	if _, err := ix.TruncatedConstraint(part, -1); err == nil {
		t.Error("negative truncation accepted")
	}
}

// A custom Constraint implementation (not one of the built-ins) must work
// through the adapter.
type everyOther struct{ n int }

func (e everyOther) GroundSize() int { return e.n }
func (e everyOther) Independent(S []int) bool {
	for _, u := range S {
		if u%2 == 1 {
			return false
		}
	}
	return true
}
func (e everyOther) Rank() int { return (e.n + 1) / 2 }

func TestCustomConstraintAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items, m := matrixItems(8, rng)
	ix, _ := NewIndex(items, WithDistanceMatrix(m))
	sol, err := ix.Query(context.Background(), Query{Algorithm: AlgorithmLocalSearch, Constraint: everyOther{n: 8}, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range sol.Indices {
		if u%2 == 1 {
			t.Fatal("custom constraint violated")
		}
	}
	if len(sol.Indices) != 4 {
		t.Errorf("got %d members, want 4", len(sol.Indices))
	}
}

func TestMMRPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items, m := matrixItems(9, rng)
	ix, _ := NewIndex(items, WithDistanceMatrix(m))
	sol, err := ix.MMR(0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Indices) != 3 {
		t.Fatalf("MMR returned %d items", len(sol.Indices))
	}
	if math.Abs(sol.Value-ix.Objective(sol.Indices)) > 1e-9 {
		t.Error("MMR solution value inconsistent")
	}
	if _, err := ix.MMR(2, 3); err == nil {
		t.Error("lambda > 1 accepted")
	}
}

func TestDynamicPublic(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	items, m := matrixItems(10, rng)
	ix, err := NewIndex(items, WithDistanceMatrix(m), WithLambda(0.4))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := ix.Query(ctx, Query{K: 4, Parallelism: 1})
	dyn, err := ix.NewDynamic(g.Indices)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Selection()) != 4 || len(dyn.IDs()) != 4 {
		t.Fatal("dynamic selection wrong size")
	}
	startVal := dyn.Value()
	if math.Abs(startVal-g.Value) > 1e-9 {
		t.Errorf("dynamic start value %g, greedy %g", startVal, g.Value)
	}

	// Weight increase on a non-member, then maintain.
	nonMember := -1
	inSel := map[int]bool{}
	for _, u := range dyn.Selection() {
		inSel[u] = true
	}
	for u := 0; u < 10; u++ {
		if !inSel[u] {
			nonMember = u
			break
		}
	}
	pert, err := dyn.UpdateWeight(nonMember, 50)
	if err != nil {
		t.Fatal(err)
	}
	k, err := dyn.UpdatesNeeded(pert)
	if err != nil || k != 1 {
		t.Errorf("weight increase should need 1 update, got %d (%v)", k, err)
	}
	if _, err := dyn.Maintain(pert); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range dyn.Selection() {
		if u == nonMember {
			found = true
		}
	}
	if !found {
		t.Error("a +50 weight spike should pull the item into the selection")
	}

	// Distance update and direct update rule.
	if _, err := dyn.UpdateDistance(0, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	dyn.Update() // no assertion: may or may not swap

	// The index's own data must be untouched (session owns a copy).
	if ix.Distance(0, 1) != m[0][1] {
		t.Error("dynamic session mutated the index's metric")
	}
	if _, err := dyn.UpdateWeight(-1, 1); err == nil {
		t.Error("bad index accepted")
	}
	if _, err := ix.NewDynamic([]int{0, 0}); err == nil {
		t.Error("duplicate initial selection accepted")
	}
}

func TestLocalSearchOptionsPlumbed(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(10))
	items, m := matrixItems(20, rng)
	ix, _ := NewIndex(items, WithDistanceMatrix(m), WithLambda(0.2))
	card, _ := ix.Cardinality(5)
	g, _ := ix.Query(ctx, Query{K: 5, Parallelism: 1})
	sol, err := ix.Query(ctx, Query{
		Algorithm:   AlgorithmLocalSearch,
		Constraint:  card,
		Init:        g.Indices,
		TimeBudget:  time.Second,
		MaxSwaps:    3,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Swaps > 3 {
		t.Errorf("MaxSwaps not honored: %d", sol.Swaps)
	}
	if sol.Value < g.Value-1e-9 {
		t.Error("LS regressed below its init")
	}
}
