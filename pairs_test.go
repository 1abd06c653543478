package maxsumdiv

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// frontierItems draws n items with 8-dimensional vectors and random
// weights.
func frontierItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		vec := make([]float64, 8)
		for k := range vec {
			vec[k] = rng.NormFloat64()
		}
		items[i] = Item{ID: fmt.Sprint(i), Weight: rng.Float64(), Vector: vec}
	}
	return items
}

// frontierIndex builds an index over items with a 5-part partition
// constraint, 2 per part.
func frontierIndex(t *testing.T, items []Item) (*Index, Constraint) {
	t.Helper()
	ix, err := NewIndex(items, WithFloat32())
	if err != nil {
		t.Fatal(err)
	}
	partOf := make([]int, len(items))
	for i := range partOf {
		partOf[i] = i % 5
	}
	part, err := ix.PartitionConstraint(partOf, []int{2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	return ix, part
}

// pairStats reads the frontier counters of an index or of a constraint
// built by one.
func pairStats(t *testing.T, of any) (builds, size int) {
	t.Helper()
	switch v := of.(type) {
	case *Index:
		return v.pairs.Stats()
	case *indexConstraint:
		return v.pairs.Stats()
	}
	t.Fatalf("no pair cache on %T", of)
	return 0, 0
}

// TestPairFrontierConcurrentFirstQueries races the first greedy-improved
// and partition local-search queries on a fresh Index, at several λ and
// worker counts. Every answer must equal a serial run on a twin index, and
// the index and the constraint must each build their frontier exactly
// once.
func TestPairFrontierConcurrentFirstQueries(t *testing.T) {
	items := frontierItems(300, 170)
	var queries []Query
	for _, lambda := range []float64{0, 0.25, 1, 2} {
		for _, par := range []int{0, 1, 3} {
			queries = append(queries,
				Query{K: 6, Lambda: Ptr(lambda), Algorithm: AlgorithmGreedyImproved, Parallelism: par},
				Query{Lambda: Ptr(lambda), Algorithm: AlgorithmLocalSearch, Parallelism: par})
		}
	}
	ctx := context.Background()
	twin, twinPart := frontierIndex(t, items)
	want := make([]*Solution, len(queries))
	for i, q := range queries {
		if q.Algorithm == AlgorithmLocalSearch {
			q.Constraint = twinPart
		}
		sol, err := twin.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sol
	}
	ix, part := frontierIndex(t, items)
	got := make([]*Solution, len(queries))
	errs := make([]error, len(queries))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, q := range queries {
		if q.Algorithm == AlgorithmLocalSearch {
			q.Constraint = part
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = ix.Query(ctx, q)
		}()
	}
	close(start)
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d (%+v): concurrent %+v, serial %+v", i, queries[i], got[i], want[i])
		}
	}
	for name, of := range map[string]any{"index": ix, "partition": part} {
		if builds, size := pairStats(t, of); builds != 1 || size < 0 {
			t.Fatalf("%s: %d builds, frontier %d; want exactly one kept build", name, builds, size)
		}
	}
}

// TestPairFrontierIndexScope checks which queries share which frontier: a
// per-query Quality and a constraint from another index build their own,
// a cardinality constraint reads the index's, and a truncation shares its
// inner constraint's. Answers agree across all of them.
func TestPairFrontierIndexScope(t *testing.T) {
	items := frontierItems(120, 171)
	ctx := context.Background()
	ix, part := frontierIndex(t, items)
	_, otherPart := frontierIndex(t, items)

	improved := Query{K: 5, Algorithm: AlgorithmGreedyImproved}
	custom := improved
	custom.Quality = weightSum(items)
	if _, err := ix.Query(ctx, custom); err != nil {
		t.Fatal(err)
	}
	if builds, _ := pairStats(t, ix); builds != 0 {
		t.Fatalf("a per-query Quality built the index frontier (%d builds)", builds)
	}

	card, err := ix.Cardinality(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{improved, {Algorithm: AlgorithmLocalSearch, Constraint: card}} {
		if _, err := ix.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if builds, size := pairStats(t, ix); builds != 1 || size < 0 {
		t.Fatalf("greedy-improved then cardinality local search: %d index builds, frontier %d; want one", builds, size)
	}

	ls := Query{Algorithm: AlgorithmLocalSearch, Constraint: otherPart}
	foreign, err := ix.Query(ctx, ls)
	if err != nil {
		t.Fatal(err)
	}
	if builds, _ := pairStats(t, otherPart); builds != 0 {
		t.Fatalf("a constraint from another index lent its frontier (%d builds)", builds)
	}

	// The truncation's first query builds the frontier its partition then
	// reads.
	trunc, err := ix.TruncatedConstraint(part, 4)
	if err != nil {
		t.Fatal(err)
	}
	ls.Constraint = trunc
	if _, err := ix.Query(ctx, ls); err != nil {
		t.Fatal(err)
	}
	if builds, _ := pairStats(t, part); builds != 1 {
		t.Fatalf("the truncation built %d frontiers for its partition; want the shared one", builds)
	}
	ls.Constraint = part
	own, err := ix.Query(ctx, ls)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(foreign, own) {
		t.Fatalf("partition from a twin index %+v, own partition %+v", foreign, own)
	}
	if builds, size := pairStats(t, part); builds != 1 || size < 0 {
		t.Fatalf("truncation then partition: %d builds, frontier %d; want one shared build", builds, size)
	}
	if builds, _ := pairStats(t, otherPart); builds != 0 {
		t.Fatalf("twin index's partition built a frontier for a foreign index (%d builds)", builds)
	}
}

// weightSum is the modular quality as a user SetFunction.
type weightSum []Item

func (w weightSum) Value(S []int) float64 {
	v := 0.0
	for _, u := range S {
		v += w[u].Weight
	}
	return v
}
