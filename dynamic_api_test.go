package maxsumdiv_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"maxsumdiv"
	"maxsumdiv/internal/metric"
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

// perturbWeight applies one random weight update and its maintenance. A
// Type II drop outside Theorem 4's regime makes Maintain error after the
// weight is applied; the selection is then restored by looping Update.
func perturbWeight(t *testing.T, d *maxsumdiv.Dynamic, rng *rand.Rand) {
	t.Helper()
	pert, err := d.UpdateWeight(rng.Intn(d.Len()), rng.Float64())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Maintain(pert); err != nil {
		for swapped := true; swapped; swapped, _ = d.Update() {
		}
	}
}

// TestDynamicReadsIndexDistances checks that a Dynamic reads its index's
// distances instead of copying them: NewDynamic and a run of weight updates
// build no distance backend, and the first distance or ground-set mutation
// builds exactly one, the session's private copy (at n = 100 000 on a
// vector index, a copy would be about 40 GB).
func TestDynamicReadsIndexDistances(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(51))
	vecs := make([][]float64, n)
	weights := make([]float64, n)
	for i := range vecs {
		vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		weights[i] = rng.Float64()
	}
	vec, err := maxsumdiv.NewVectorIndex(vecs, weights)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]maxsumdiv.Item, n)
	for i := range items {
		items[i] = maxsumdiv.Item{ID: string(rune('a' + i%26)), Weight: weights[i], Vector: vecs[i]}
	}
	f32, err := maxsumdiv.NewIndex(items, maxsumdiv.WithFloat32())
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(d *maxsumdiv.Dynamic) error{
		"UpdateDistance": func(d *maxsumdiv.Dynamic) error { _, err := d.UpdateDistance(0, 1, 0.5); return err },
		"Insert":         func(d *maxsumdiv.Dynamic) error { _, err := d.Insert("x", 0.5, make([]float64, d.Len())); return err },
		"Delete":         func(d *maxsumdiv.Dynamic) error { return d.Delete(3) },
	}
	for name, ix := range map[string]*maxsumdiv.Index{"vec-f32": vec, "f32": f32} {
		for mname, mutate := range mutations {
			g, err := ix.Query(context.Background(), maxsumdiv.Query{K: 8})
			if err != nil {
				t.Fatal(err)
			}
			before := metric.Constructions()
			d, err := ix.NewDynamic(g.Indices)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				perturbWeight(t, d, rng)
			}
			if got := metric.Constructions() - before; got != 0 {
				t.Fatalf("%s: NewDynamic and 100 weight updates built %d distance backends, want 0", name, got)
			}
			if err := mutate(d); err != nil {
				t.Fatal(err)
			}
			if err := mutate(d); err != nil {
				t.Fatal(err)
			}
			perturbWeight(t, d, rng)
			if got := metric.Constructions() - before; got != 1 {
				t.Fatalf("%s: two %s calls built %d distance backends, want 1", name, mname, got)
			}
		}
	}
}

// TestDynamicRejectedUpdateKeepsTheorem4Reference checks that a rejected
// update leaves the Theorem 4 reference value of the last accepted one
// alone: dropping the dominant weight 100 to 0 prescribes 15 updates at
// k = 8, λ = 0.01, before and after an invalid UpdateWeight.
func TestDynamicRejectedUpdateKeepsTheorem4Reference(t *testing.T) {
	items := randomItems(12, 52)
	for i := range items {
		items[i].Weight = 1
	}
	items[0].Weight = 100
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.01))
	if err != nil {
		t.Fatal(err)
	}
	g, err := ix.Query(context.Background(), maxsumdiv.Query{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ix.NewDynamic(g.Indices)
	if err != nil {
		t.Fatal(err)
	}
	pert, err := d.UpdateWeight(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		k, err := d.UpdatesNeeded(pert)
		if err != nil || k != 15 {
			t.Fatalf("%s: UpdatesNeeded = %d, %v; want 15", when, k, err)
		}
	}
	check("after UpdateWeight(0, 0)")
	if _, err := d.UpdateWeight(0, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	check("after a rejected UpdateWeight")
	if _, err := d.UpdateDistance(0, 0, 1); err == nil {
		t.Fatal("self-distance accepted")
	}
	check("after a rejected UpdateDistance")
}

// TestDynamicConcurrentWithQuery runs Index.Query concurrently with a
// Dynamic's updates on the same index: the session reads the index's
// metric, so both sides share it. Every query must return its serial
// answer, and the Dynamic must end where a serial replay of its updates
// ends. Run on the vector backend and the lazy one (n above the eager
// limit, so the striped cache is live).
func TestDynamicConcurrentWithQuery(t *testing.T) {
	const n = 1100
	items := randomItems(n, 53)
	vec, err := maxsumdiv.NewIndex(items, maxsumdiv.WithVectorBackendF32())
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLazyDistances())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, ix := range map[string]*maxsumdiv.Index{"vec-f32": vec, "lazy": lazy} {
		q := maxsumdiv.Query{K: 6}
		want, err := ix.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		run := func(d *maxsumdiv.Dynamic) {
			rng := rand.New(rand.NewSource(54))
			for i := 0; i < 40; i++ {
				perturbWeight(t, d, rng)
			}
		}
		serial, err := ix.NewDynamic(want.Indices)
		if err != nil {
			t.Fatal(err)
		}
		run(serial)
		d, err := ix.NewDynamic(want.Indices)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					got, err := ix.Query(ctx, q)
					if err != nil {
						errs <- err
						return
					}
					if !slices.Equal(got.Indices, want.Indices) || got.Value != want.Value {
						errs <- errors.New(name + ": a query under concurrent updates changed its answer")
						return
					}
				}
			}()
		}
		run(d)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if !slices.Equal(d.Selection(), serial.Selection()) || d.Value() != serial.Value() {
			t.Fatalf("%s: concurrent Dynamic ended at %v (%v), serial at %v (%v)",
				name, d.Selection(), d.Value(), serial.Selection(), serial.Value())
		}
	}
}
