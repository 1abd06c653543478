package maxsumdiv_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"maxsumdiv"
)

// propInstance is one randomized problem for the quick.Check properties:
// items with random weights and vectors, a λ, and a requested k that may
// exceed n (exercising the min(k, n) clamp).
type propInstance struct {
	items  []maxsumdiv.Item
	lambda float64
	k      int
	seed   int64
}

// propGen draws instances with n ≤ maxN (kept small enough that the exact
// solver stays instant).
func propGen(maxN int) func(args []reflect.Value, rng *rand.Rand) {
	return func(args []reflect.Value, rng *rand.Rand) {
		n := 2 + rng.Intn(maxN-1)
		items := make([]maxsumdiv.Item, n)
		for i := range items {
			items[i] = maxsumdiv.Item{
				ID:     string(rune('a' + i)),
				Weight: rng.Float64() * 2,
				Vector: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
			}
		}
		args[0] = reflect.ValueOf(propInstance{
			items:  items,
			lambda: rng.Float64(),
			k:      1 + rng.Intn(n+4), // deliberately sometimes > n
			seed:   rng.Int63(),
		})
	}
}

func newProblem(t testing.TB, in propInstance) *maxsumdiv.Index {
	ix, err := maxsumdiv.NewIndex(in.items, maxsumdiv.WithLambda(in.lambda))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// Property: every solver returns exactly min(k, n) items, sorted, in-range
// and duplicate-free, under Query.ClampK.
func TestPropertySolversReturnMinKN(t *testing.T) {
	algos := []maxsumdiv.Algorithm{
		maxsumdiv.AlgorithmGreedy, maxsumdiv.AlgorithmGreedyImproved,
		maxsumdiv.AlgorithmGollapudiSharma, maxsumdiv.AlgorithmOblivious,
		maxsumdiv.AlgorithmLocalSearch, maxsumdiv.AlgorithmExact,
	}
	cfg := &quick.Config{MaxCount: 30, Values: propGen(8)}
	property := func(in propInstance) bool {
		ix := newProblem(t, in)
		n := len(in.items)
		want := in.k
		if want > n {
			want = n
		}
		for _, algo := range algos {
			sol, err := ix.Query(context.Background(), maxsumdiv.Query{K: in.k, Algorithm: algo, ClampK: true})
			if err != nil {
				t.Logf("algo %d: %v", algo, err)
				return false
			}
			if len(sol.Indices) != want || len(sol.IDs) != want {
				t.Logf("algo %d: %d items, want min(%d,%d)", algo, len(sol.Indices), in.k, n)
				return false
			}
			seen := map[int]bool{}
			prev := -1
			for _, u := range sol.Indices {
				if u < 0 || u >= n || seen[u] || u <= prev {
					t.Logf("algo %d: bad index list %v", algo, sol.Indices)
					return false
				}
				seen[u] = true
				prev = u
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// Property: for a fixed k, the optimal objective never decreases as items
// are inserted (the feasible sets only grow), and neither does a dynamic
// session's maintained value under the same insert stream.
func TestPropertyObjectiveMonotoneUnderInserts(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Values: propGen(6)}
	property := func(in propInstance) bool {
		rng := rand.New(rand.NewSource(in.seed))
		ctx := context.Background()
		const k = 3
		// Start from a prefix of ≥ 1 item and insert the rest one at a time.
		for cut := 1; cut < len(in.items); cut++ {
			prefix := in.items[:cut]
			ix := mustProblem(t, prefix, in.lambda)
			prev, err := ix.Query(ctx, maxsumdiv.Query{K: k, Algorithm: maxsumdiv.AlgorithmExact, ClampK: true})
			if err != nil {
				return false
			}
			next := mustProblem(t, in.items[:cut+1], in.lambda)
			cur, err := next.Query(ctx, maxsumdiv.Query{K: k, Algorithm: maxsumdiv.AlgorithmExact, ClampK: true})
			if err != nil {
				return false
			}
			if cur.Value < prev.Value-1e-9 {
				t.Logf("exact objective decreased: %g → %g at n=%d", prev.Value, cur.Value, cut+1)
				return false
			}
		}
		// Dynamic session: maintained φ(S) is monotone under inserts.
		ix := mustProblem(t, in.items[:1], in.lambda)
		d, err := ix.NewDynamic([]int{0})
		if err != nil {
			return false
		}
		if err := d.SetTarget(k); err != nil {
			return false
		}
		prev := d.Value()
		for i := 1; i < len(in.items)+4; i++ {
			dists := make([]float64, d.Len())
			for j := range dists {
				dists[j] = 1 + rng.Float64()
			}
			if _, err := d.Insert("x", rng.Float64(), dists); err != nil {
				return false
			}
			if v := d.Value(); v < prev-1e-9 {
				t.Logf("session value decreased: %g → %g", prev, v)
				return false
			} else {
				prev = v
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// Property (Theorems 1 and 2 observed end to end): greedy and local search
// stay within the paper's factor-2 guarantee of the brute-force optimum on
// n ≤ 8 instances, and never beat it.
func TestPropertyApproximationFactor(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Values: propGen(8)}
	property := func(in propInstance) bool {
		ix := newProblem(t, in)
		ctx := context.Background()
		k := in.k
		if k > len(in.items) {
			k = len(in.items)
		}
		opt, err := ix.Query(ctx, maxsumdiv.Query{K: k, Algorithm: maxsumdiv.AlgorithmExact})
		if err != nil {
			return false
		}
		for _, algo := range []maxsumdiv.Algorithm{
			maxsumdiv.AlgorithmGreedy, maxsumdiv.AlgorithmLocalSearch,
		} {
			sol, err := ix.Query(ctx, maxsumdiv.Query{K: k, Algorithm: algo})
			if err != nil {
				return false
			}
			if sol.Value < opt.Value/2-1e-9 || sol.Value > opt.Value+1e-9 {
				t.Logf("algo %d: value %g outside [OPT/2, OPT] = [%g, %g]",
					algo, sol.Value, opt.Value/2, opt.Value)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func mustProblem(t testing.TB, items []maxsumdiv.Item, lambda float64) *maxsumdiv.Index {
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(lambda))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}
