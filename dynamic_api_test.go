package maxsumdiv_test

import (
	"context"
	"math/rand"
	"testing"

	"maxsumdiv"
)

// TestDynamicInsertDelete drives the fully dynamic public API: inserts grow
// the ground set and never decrease φ(S); deletes evict selected items and
// keep identifier bookkeeping consistent through the swap-with-last remap.
func TestDynamicInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	items := randomItems(6, 42)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ix.Query(context.Background(), maxsumdiv.Query{K: 3, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ix.NewDynamic(g.Indices)
	if err != nil {
		t.Fatal(err)
	}

	// Insert-only phase: φ(S) is monotone.
	prev := d.Value()
	for i := 0; i < 8; i++ {
		dists := make([]float64, d.Len())
		for j := range dists {
			dists[j] = 1 + rng.Float64()
		}
		if _, err := d.Insert("new", rng.Float64(), dists); err != nil {
			t.Fatal(err)
		}
		if v := d.Value(); v < prev-1e-9 {
			t.Fatalf("insert %d decreased φ(S): %g → %g", i, prev, v)
		} else {
			prev = v
		}
	}
	if d.Len() != 14 {
		t.Fatalf("Len = %d, want 14", d.Len())
	}

	// Target growth keeps ids and indices aligned.
	if err := d.SetTarget(5); err != nil {
		t.Fatal(err)
	}
	sel, ids := d.Selection(), d.IDs()
	if len(sel) != 5 || len(ids) != 5 {
		t.Fatalf("selection %v / ids %v, want 5 each", sel, ids)
	}

	// Delete every item; selections must shrink with the ground set and
	// never reference a stale index.
	for d.Len() > 0 {
		if err := d.Delete(rng.Intn(d.Len())); err != nil {
			t.Fatal(err)
		}
		want := d.Len()
		if want > 5 {
			want = 5
		}
		if got := len(d.Selection()); got != want {
			t.Fatalf("|S| = %d with %d items", got, d.Len())
		}
		for _, u := range d.Selection() {
			if u < 0 || u >= d.Len() {
				t.Fatalf("selection index %d out of range [0,%d)", u, d.Len())
			}
		}
	}
	if err := d.Delete(0); err == nil {
		t.Fatal("delete on empty ground set accepted")
	}

	// Perturbations still work after re-inserting.
	if _, err := d.Insert("a", 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert("b", 2, []float64{1.5}); err != nil {
		t.Fatal(err)
	}
	pert, err := d.UpdateWeight(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Maintain(pert); err != nil {
		t.Fatal(err)
	}
}

// TestWithClampK checks Query.ClampK's min(k, n) semantics across
// algorithms.
func TestWithClampK(t *testing.T) {
	items := randomItems(7, 3)
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := ix.Query(ctx, maxsumdiv.Query{K: 99}); err == nil {
		t.Fatal("k > n without ClampK should error")
	}
	for _, algo := range []maxsumdiv.Algorithm{
		maxsumdiv.AlgorithmGreedy, maxsumdiv.AlgorithmGreedyImproved,
		maxsumdiv.AlgorithmGollapudiSharma, maxsumdiv.AlgorithmOblivious,
		maxsumdiv.AlgorithmLocalSearch, maxsumdiv.AlgorithmExact,
	} {
		sol, err := ix.Query(ctx, maxsumdiv.Query{K: 99, Algorithm: algo, ClampK: true})
		if err != nil {
			t.Fatalf("algo %d: %v", algo, err)
		}
		if len(sol.Indices) != ix.Len() {
			t.Fatalf("algo %d: clamped solve returned %d items, want %d", algo, len(sol.Indices), ix.Len())
		}
	}
}

// TestDistanceCacheStats checks the cache observability surface.
func TestDistanceCacheStats(t *testing.T) {
	items := randomItems(40, 5)
	eager, err := maxsumdiv.NewIndex(items)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := eager.DistanceCacheStats(); ok {
		t.Fatal("eager index should not report cache stats")
	}
	// Small lazy indexes are promoted to dense: still no cache.
	lazySmall, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLazyDistances())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := lazySmall.DistanceCacheStats(); ok {
		t.Fatal("small lazy index is materialized; should not report cache stats")
	}
	big := randomItems(1100, 6)
	lazy, err := maxsumdiv.NewIndex(big, maxsumdiv.WithLazyDistances())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.Query(context.Background(), maxsumdiv.Query{K: 4}); err != nil {
		t.Fatal(err)
	}
	stored, computed, lookups, ok := lazy.DistanceCacheStats()
	if !ok {
		t.Fatal("large lazy index should report cache stats")
	}
	if stored == 0 || computed < int64(stored) || lookups < computed {
		t.Fatalf("implausible counters: stored=%d computed=%d lookups=%d", stored, computed, lookups)
	}
}
