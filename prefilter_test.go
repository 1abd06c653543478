package maxsumdiv_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"maxsumdiv"
)

// preFilteredQueries mixes k (so several sketch widths are used),
// CandidateTarget and a local-search Init.
func preFilteredQueries() []maxsumdiv.Query {
	pre := maxsumdiv.CandidatesPreFiltered
	return []maxsumdiv.Query{
		{K: 10, Candidates: pre},
		{K: 4, Candidates: pre, Lambda: maxsumdiv.Ptr(0.2)},
		{K: 40, Candidates: pre},
		{K: 6, Candidates: pre, CandidateTarget: 100},
		{K: 10, Candidates: pre, Algorithm: maxsumdiv.AlgorithmGreedyImproved},
		{K: 5, Candidates: pre, Algorithm: maxsumdiv.AlgorithmLocalSearch,
			Init: []int{0, 1, 2, 3, 4}, MaxSwaps: 3},
		{K: 10, Candidates: pre, Lambda: maxsumdiv.Ptr(2.0)},
	}
}

func sameSolution(a, b *maxsumdiv.Solution) bool {
	return slices.Equal(a.Indices, b.Indices) && a.Value == b.Value
}

// TestPreFilteredSketchReuse: repeated pre-filtered queries on one index
// reuse its sketches and must answer bit-identically to the same query as
// the first on a fresh index.
func TestPreFilteredSketchReuse(t *testing.T) {
	vecs, weights := vectorCorpus(31, 3000, 8)
	ctx := context.Background()
	queries := preFilteredQueries()
	first := make([]*maxsumdiv.Solution, len(queries))
	for i, q := range queries {
		fresh, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.5))
		if err != nil {
			t.Fatal(err)
		}
		if first[i], err = fresh.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	shared, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i, q := range queries {
			sol, err := shared.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSolution(sol, first[i]) {
				t.Fatalf("round %d query %d: %v (%v) on a reused index, %v (%v) on a fresh one",
					round, i, sol.Indices, sol.Value, first[i].Indices, first[i].Value)
			}
		}
	}
}

// TestPreFilteredConcurrentFirstQueries: eight goroutines race to make the
// first pre-filtered queries on a fresh index (so they race to build the
// sketches) and must agree with a serial run.
func TestPreFilteredConcurrentFirstQueries(t *testing.T) {
	vecs, weights := vectorCorpus(37, 3000, 8)
	ctx := context.Background()
	queries := preFilteredQueries()
	serial, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*maxsumdiv.Solution, len(queries))
	for i, q := range queries {
		if want[i], err = serial.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.5))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queries {
				i := (g + j) % len(queries)
				sol, err := ix.Query(ctx, queries[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !sameSolution(sol, want[i]) {
					t.Errorf("goroutine %d query %d: %v, serial %v", g, i, sol.Indices, want[i].Indices)
				}
			}
		}()
	}
	wg.Wait()
}

// TestPreFilteredZeroK: a k = 0 pre-filtered query answers exactly as the
// exact scan does and leaves the sketch unbuilt. The sketch reads the
// caller's vectors when it is built, so zeroing them after the k = 0 query
// shows whether that query built it.
func TestPreFilteredZeroK(t *testing.T) {
	vecs, weights := vectorCorpus(41, 3000, 8)
	ctx := context.Background()
	clone := func() [][]float64 {
		out := make([][]float64, len(vecs))
		for i, v := range vecs {
			out[i] = slices.Clone(v)
		}
		return out
	}
	ixVecs, controlVecs := clone(), clone()
	ix, err := maxsumdiv.NewVectorIndex(ixVecs, weights)
	if err != nil {
		t.Fatal(err)
	}
	control, err := maxsumdiv.NewVectorIndex(controlVecs, weights)
	if err != nil {
		t.Fatal(err)
	}
	untouched, err := maxsumdiv.NewVectorIndex(vecs, weights)
	if err != nil {
		t.Fatal(err)
	}

	zero, err := ix.Query(ctx, maxsumdiv.Query{Candidates: maxsumdiv.CandidatesPreFiltered})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ix.Query(ctx, maxsumdiv.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, exact) {
		t.Fatalf("k = 0 pre-filtered %+v, exact %+v", zero, exact)
	}

	// k = 4 uses the same sketch width as k = 0 (default target 512).
	for _, vs := range [][][]float64{ixVecs, controlVecs} {
		for _, v := range vs {
			clear(v)
		}
	}
	q := maxsumdiv.Query{K: 4, Candidates: maxsumdiv.CandidatesPreFiltered}
	got, err := ix.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := control.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSolution(got, want) {
		t.Fatalf("after a k = 0 query: %v, want %v as on an index that never pre-filtered", got.Indices, want.Indices)
	}
	original, err := untouched.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if sameSolution(original, want) {
		t.Fatal("zeroed and original vectors select alike; the test cannot tell whether k = 0 built the sketch")
	}
}
