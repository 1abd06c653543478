package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSolveTracePrefixesMatchSolo pins the contract the serving layer's
// batching dispatcher is built on: for every prefix-nested algorithm, one
// traced run (a one-target SolveMultiTrace) to K reproduces the solo Solve
// result at every covered k — identical members AND bit-identical objective
// values, since the additions (and so the floating-point accumulation
// order) are the same.
func TestSolveTracePrefixesMatchSolo(t *testing.T) {
	const n, kMax = 60, 20
	for _, tc := range []struct {
		name string
		algo Algo
		minK int
	}{
		{"greedy", AlgoGreedy, 1},
		{"greedy-improved", AlgoGreedyImproved, 2},
		{"oblivious", AlgoOblivious, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obj := randInstance(t, n, 0.7, rand.New(rand.NewSource(51)))
			trace, err := soloTrace(obj, Spec{Algo: tc.algo, K: kMax})
			if err != nil {
				t.Fatal(err)
			}
			if trace.Len() != kMax {
				t.Fatalf("trace recorded %d additions, want %d", trace.Len(), kMax)
			}
			for k := tc.minK; k <= kMax; k++ {
				if !PrefixNested(tc.algo, k) {
					t.Fatalf("PrefixNested(%v, %d) = false inside the nested range", tc.algo, k)
				}
				want, err := Solve(obj, Spec{Algo: tc.algo, K: k})
				if err != nil {
					t.Fatal(err)
				}
				got := trace.Solution(k)
				if !slices.Equal(got.Members, want.Members) {
					t.Fatalf("k=%d: prefix members %v, solo %v", k, got.Members, want.Members)
				}
				if got.Value != want.Value || got.FValue != want.FValue || got.Dispersion != want.Dispersion {
					t.Fatalf("k=%d: prefix values (%v %v %v), solo (%v %v %v)", k,
						got.Value, got.FValue, got.Dispersion,
						want.Value, want.FValue, want.Dispersion)
				}
			}
			// Clamping past the recorded length returns the full solution.
			if got := trace.Solution(kMax + 5); len(got.Members) != kMax {
				t.Fatalf("over-length prefix returned %d members, want %d", len(got.Members), kMax)
			}
		})
	}
	// The non-nested algorithms must refuse a trace rather than mislead.
	obj := randInstance(t, 20, 0.5, rand.New(rand.NewSource(52)))
	for _, algo := range []Algo{AlgoLocalSearch, AlgoExact, AlgoGollapudiSharma} {
		if PrefixNested(algo, 5) {
			t.Fatalf("PrefixNested(%v) = true for a non-nested algorithm", algo)
		}
		if _, err := soloTrace(obj, Spec{Algo: algo, K: 5}); err == nil {
			t.Fatalf("SolveMultiTrace accepted non-nested algorithm %v", algo)
		}
	}
}
