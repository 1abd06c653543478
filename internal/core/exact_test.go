package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// bruteForce enumerates all p-subsets naively — the oracle for Exact.
func bruteForce(obj *Objective, p int) float64 {
	n := obj.N()
	best := math.Inf(-1)
	idx := make([]int, p)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == p {
			if v := obj.Value(idx); v > best {
				best = v
			}
			return
		}
		for u := start; u < n; u++ {
			idx[k] = u
			rec(u+1, k+1)
		}
	}
	if p == 0 {
		return 0
	}
	rec(0, 0)
	return best
}

func TestExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(5)
		p := rng.Intn(n + 1)
		var obj *Objective
		if trial%2 == 0 {
			obj = randInstance(t, n, rng.Float64(), rng)
		} else {
			obj = randSubmodularInstance(t, n, 4, rng.Float64(), rng)
		}
		want := bruteForce(obj, p)
		for name, opts := range map[string]*ExactOptions{
			"pruned":    nil,
			"unpruned":  {NoPrune: true},
			"parallel":  {Parallel: true},
			"par-noprn": {Parallel: true, NoPrune: true},
		} {
			got, err := Exact(obj, p, opts)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if math.Abs(got.Value-want) > 1e-9 {
				t.Fatalf("trial %d %s: Exact = %g, brute force = %g (n=%d p=%d)",
					trial, name, got.Value, want, n, p)
			}
			if len(got.Members) != p {
				t.Fatalf("trial %d %s: returned %d members, want %d", trial, name, len(got.Members), p)
			}
			if math.Abs(obj.Value(got.Members)-got.Value) > 1e-9 {
				t.Fatalf("trial %d %s: reported value disagrees with members", trial, name)
			}
		}
	}
}

// TestExactParallelMatchesSerial runs the parallel fan-out on many small
// instances, where workers drain the first-element queue within microseconds
// of each other, and requires the serial optimum every time. A worker's
// incumbent may only ever rise: seeding it from another worker's (possibly
// lower) published best would let a worse set replace the better one it
// already holds.
func TestExactParallelMatchesSerial(t *testing.T) {
	trials := 50000
	if testing.Short() {
		trials = 2000
	}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(5)
		p := 2 + rng.Intn(n-2)
		obj := randInstance(t, n, rng.Float64(), rng)
		want, err := Exact(obj, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		workers := 2 + trial%6
		got, err := Exact(obj, p, &ExactOptions{Parallel: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Value-want.Value) > 1e-9 {
			t.Fatalf("trial %d (n=%d p=%d workers=%d): parallel Exact = %g %v, serial = %g %v",
				trial, n, p, workers, got.Value, got.Members, want.Value, want.Members)
		}
	}
}

func TestExactEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	obj := randInstance(t, 5, 0.2, rng)
	if _, err := Exact(obj, -1, nil); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := Exact(obj, 6, nil); err == nil {
		t.Error("p > n accepted")
	}
	s, err := Exact(obj, 0, nil)
	if err != nil || len(s.Members) != 0 || s.Value != 0 {
		t.Errorf("p=0: %v %v", s, err)
	}
	s, err = Exact(obj, 5, nil)
	if err != nil || len(s.Members) != 5 {
		t.Errorf("p=n: %v %v", s, err)
	}
}

func TestExactMatroidMatchesUniformExact(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(4)
		p := 2 + rng.Intn(3)
		obj := randInstance(t, n, rng.Float64(), rng)
		u, _ := matroid.NewUniform(n, p)
		a, err := Exact(obj, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ExactMatroid(obj, u)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a.Value-b.Value) > 1e-9 {
			t.Fatalf("trial %d: Exact %g vs ExactMatroid %g", trial, a.Value, b.Value)
		}
	}
}

func TestExactMatroidRespectsConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	obj := randInstance(t, 8, 0.5, rng)
	m, _ := matroid.NewPartition([]int{0, 0, 0, 0, 1, 1, 1, 1}, []int{2, 1})
	sol, err := ExactMatroid(obj, m)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Independent(sol.Members) || len(sol.Members) != m.Rank() {
		t.Fatalf("ExactMatroid returned %v", sol.Members)
	}
	bad, _ := matroid.NewUniform(3, 1)
	if _, err := ExactMatroid(obj, bad); err == nil {
		t.Error("ground mismatch accepted")
	}
	// Rank 0.
	m0, _ := matroid.NewUniform(8, 0)
	s0, err := ExactMatroid(obj, m0)
	if err != nil || len(s0.Members) != 0 {
		t.Errorf("rank 0: %v %v", s0, err)
	}
}

func TestMMR(t *testing.T) {
	rel := []float64{0.9, 0.5, 0.8, 0.1}
	simMat := [][]float64{
		{1, 0.95, 0.1, 0.2},
		{0.95, 1, 0.15, 0.1},
		{0.1, 0.15, 1, 0.3},
		{0.2, 0.1, 0.3, 1},
	}
	sim := func(u, v int) float64 { return simMat[u][v] }
	got, err := MMR(rel, sim, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("first pick %d, want the most relevant (0)", got[0])
	}
	// Element 1 is nearly identical to 0; MMR must prefer 2 next.
	if got[1] != 2 {
		t.Errorf("second pick %d, want 2 (novelty)", got[1])
	}
	if len(got) != 3 {
		t.Errorf("returned %d picks", len(got))
	}
	seen := map[int]bool{}
	for _, u := range got {
		if seen[u] {
			t.Fatal("duplicate selection")
		}
		seen[u] = true
	}

	if _, err := MMR(rel, sim, 0.5, 5); err == nil {
		t.Error("p > n accepted")
	}
	if _, err := MMR(rel, sim, -0.1, 2); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := MMR(rel, sim, 1.1, 2); err == nil {
		t.Error("lambda > 1 accepted")
	}
	if _, err := MMR(rel, nil, 0.5, 2); err == nil {
		t.Error("nil sim accepted")
	}
	empty, err := MMR(rel, sim, 0.5, 0)
	if err != nil || len(empty) != 0 {
		t.Error("p=0 should select nothing")
	}
	// λ=1 is pure relevance ranking.
	pure, _ := MMR(rel, sim, 1, 4)
	want := []int{0, 2, 1, 3}
	for i := range want {
		if pure[i] != want[i] {
			t.Fatalf("λ=1 order %v, want %v", pure, want)
		}
	}
}

func TestSimilarityFromMetric(t *testing.T) {
	d := metric.NewDense(3)
	d.SetDistance(0, 1, 1)
	d.SetDistance(0, 2, 4)
	d.SetDistance(1, 2, 3.5)
	sim := SimilarityFromMetric(d)
	if got := sim(0, 2); got != 0 {
		t.Errorf("farthest pair similarity = %g, want 0", got)
	}
	if got := sim(0, 1); math.Abs(got-3) > 1e-12 {
		t.Errorf("sim(0,1) = %g, want 3", got)
	}
	if sim(1, 1) != 4 {
		t.Errorf("self similarity should be dmax")
	}
}

// bruteForceKMatching enumerates all k-edge matchings.
func bruteForceKMatching(n, k int, weight func(u, v int) float64) float64 {
	best := math.Inf(-1)
	var rec func(used int, edges int, total float64)
	rec = func(used int, edges int, total float64) {
		if edges == k {
			if total > best {
				best = total
			}
			return
		}
		// Choose the lowest unused vertex to pair (canonical order).
		u := -1
		for i := 0; i < n; i++ {
			if used&(1<<i) == 0 {
				u = i
				break
			}
		}
		if u == -1 {
			return
		}
		// Option 1: leave u unmatched forever.
		rec(used|1<<u, edges, total)
		// Option 2: match u with any unused v.
		for v := u + 1; v < n; v++ {
			if used&(1<<v) != 0 {
				continue
			}
			rec(used|1<<u|1<<v, edges+1, total+weight(u, v))
		}
	}
	rec(0, 0, 0)
	return best
}

func TestExactKMatchingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(5)
		k := 1 + rng.Intn(n/2)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				w[i][j] = rng.Float64() * 10
				w[j][i] = w[i][j]
			}
		}
		weight := func(u, v int) float64 { return w[u][v] }
		pairs, total, err := ExactKMatching(n, k, weight)
		if err != nil {
			t.Fatal(err)
		}
		if len(pairs) != k {
			t.Fatalf("returned %d pairs, want %d", len(pairs), k)
		}
		var check float64
		used := map[int]bool{}
		for _, e := range pairs {
			if used[e[0]] || used[e[1]] {
				t.Fatal("matching reuses a vertex")
			}
			used[e[0]], used[e[1]] = true, true
			check += weight(e[0], e[1])
		}
		if math.Abs(check-total) > 1e-9 {
			t.Fatalf("reported total %g but edges sum to %g", total, check)
		}
		want := bruteForceKMatching(n, k, weight)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: DP total %g, brute force %g (n=%d k=%d)", trial, total, want, n, k)
		}
	}
}

func TestExactKMatchingEdgeCases(t *testing.T) {
	w := func(u, v int) float64 { return 1 }
	if _, _, err := ExactKMatching(25, 1, w); err == nil {
		t.Error("n > 20 accepted")
	}
	if _, _, err := ExactKMatching(4, 3, w); err == nil {
		t.Error("2k > n accepted")
	}
	if _, _, err := ExactKMatching(-1, 0, w); err == nil {
		t.Error("negative n accepted")
	}
	pairs, total, err := ExactKMatching(4, 0, w)
	if err != nil || pairs != nil || total != 0 {
		t.Error("k=0 should be empty")
	}
}

func TestHRTMatchingBased(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 11; trial++ {
		n := 7 + rng.Intn(4)
		obj := randInstance(t, n, 0.3+rng.Float64(), rng)
		if trial == 10 {
			// Tied weights and distances: the odd-p completion's argmax
			// breaks exact ties.
			d := metric.NewDense(n)
			d.Fill(func(i, j int) float64 { return float64(1 + (i+j)%2) })
			obj = modularOn(t, tiedWeights(n, rng), 0.5, d)
		}
		for _, p := range []int{2, 3, 4, 5} {
			sol, err := HRTMatchingBased(obj, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(sol.Members) != p {
				t.Fatalf("p=%d: got %d members", p, len(sol.Members))
			}
			// The completion is the objective-marginal argmax on the frozen
			// reference scan.
			mod := obj.f.(*setfunc.Modular)
			pairs, _, err := ExactKMatching(n, p/2, func(u, v int) float64 {
				return mod.Weight(u) + mod.Weight(v) + 2*obj.lambda*obj.d.Distance(u, v)
			})
			if err != nil {
				t.Fatal(err)
			}
			st := obj.NewState()
			for _, e := range pairs {
				st.Add(e[0])
				st.Add(e[1])
			}
			if p%2 == 1 {
				st.Add(refArgmax(st, nil, true).Index)
			}
			sameSolution(t, fmt.Sprintf("trial %d p=%d", trial, p), solutionFromState(st, 0), sol)
			// The matching-based algorithm uses an optimal matching, so it
			// can never produce a lower reduced-dispersion opening than the
			// greedy matching of Greedy A for even p. Sanity: objective is
			// within [opt/2 - slack, opt].
			opt, _ := Exact(obj, p, nil)
			if sol.Value > opt.Value+1e-9 {
				t.Fatalf("exceeds optimum")
			}
		}
	}
	// Requires modular f.
	rngS := rand.New(rand.NewSource(5))
	sub := randSubmodularInstance(t, 6, 3, 0.5, rngS)
	if _, err := HRTMatchingBased(sub, 3); err == nil {
		t.Error("submodular f accepted")
	}
}

// The modular fast path in SwapGain must agree with the generic path.
func TestSwapGainModularFastPathAgreesWithGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	n := 9
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	mod, _ := setfunc.NewModular(w)
	d := metric.NewDense(n)
	d.Fill(func(i, j int) float64 { return 1 + rng.Float64() })
	objFast, _ := NewObjective(mod, 0.7, d)
	// Same weights via a generic (non-Modular) source: sum of two halves.
	half := make([]float64, n)
	for i := range half {
		half[i] = w[i] / 2
	}
	m1, _ := setfunc.NewModular(half)
	m2, _ := setfunc.NewModular(half)
	sum, _ := setfunc.NewSum(m1, m2)
	objSlow, _ := NewObjective(sum, 0.7, d)

	fast, slow := objFast.NewState(), objSlow.NewState()
	for _, u := range []int{0, 2, 4} {
		fast.Add(u)
		slow.Add(u)
	}
	for _, out := range []int{0, 2, 4} {
		for in := 0; in < n; in++ {
			if in == 0 || in == 2 || in == 4 {
				continue
			}
			if g1, g2 := fast.SwapGain(out, in), slow.SwapGain(out, in); math.Abs(g1-g2) > 1e-9 {
				t.Fatalf("SwapGain(%d,%d): fast %g vs generic %g", out, in, g1, g2)
			}
		}
	}
}
