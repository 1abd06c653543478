package core

import (
	"fmt"
	"math"
)

// MMR runs the Maximal Marginal Relevance heuristic of Carbonell–Goldstein,
// which Section 2 identifies as the ancestor of the paper's greedy:
//
//	next = argmax_{u ∉ S} [ λ·rel(u) − (1−λ)·max_{v∈S} sim(u,v) ]
//
// relevance[u] is sim1(u, Q); sim(u,v) is sim2. λ ∈ [0,1] trades novelty
// against relevance. The first pick maximizes relevance (the max over the
// empty set is taken as 0). Returns the selected indices in pick order.
//
// MMR optimizes a different (max-min style) novelty term than max-sum
// diversification; it is included as the related-work baseline the paper's
// greedy generalizes and theoretically justifies.
func MMR(relevance []float64, sim func(u, v int) float64, lambda float64, p int) ([]int, error) {
	n := len(relevance)
	if p < 0 || p > n {
		return nil, fmt.Errorf("core: MMR: p = %d out of [0,%d]", p, n)
	}
	if lambda < 0 || lambda > 1 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("core: MMR: lambda = %g, want [0,1]", lambda)
	}
	if sim == nil {
		return nil, fmt.Errorf("core: MMR: nil similarity")
	}
	selected := make([]int, 0, p)
	in := make([]bool, n)
	for len(selected) < p {
		best, bestVal := -1, 0.0
		for u := 0; u < n; u++ {
			if in[u] {
				continue
			}
			maxSim := 0.0
			for i, v := range selected {
				if s := sim(u, v); i == 0 || s > maxSim {
					maxSim = s
				}
			}
			score := lambda*relevance[u] - (1-lambda)*maxSim
			if best == -1 || score > bestVal {
				best, bestVal = u, score
			}
		}
		if best == -1 {
			break
		}
		in[best] = true
		selected = append(selected, best)
	}
	return selected, nil
}

// SimilarityFromMetric converts a distance oracle into the similarity MMR
// expects, as sim(u,v) = dmax − d(u,v) for the precomputed maximum distance
// dmax. Monotone-decreasing in distance, non-negative.
func SimilarityFromMetric(d interface {
	Distance(i, j int) float64
	Len() int
}) func(u, v int) float64 {
	n := d.Len()
	dmax := 0.0
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			if v := d.Distance(i, j); v > dmax {
				dmax = v
			}
		}
	}
	return func(u, v int) float64 { return dmax - d.Distance(u, v) }
}

// ExactKMatching computes a maximum-weight matching with exactly k edges on
// the complete graph over n ≤ 20 vertices, by bitmask dynamic programming in
// O(2ⁿ·n) time and O(2ⁿ) space. It is the optimal-matching core of the
// Hassin–Rubinstein–Tamir (2 − 1/⌈p/2⌉)-approximation referenced in Sections
// 1–3; the paper's evaluated Greedy A uses the greedy matching instead, and
// this exact version serves as a reference implementation and test oracle.
//
// Returns the matched pairs (each [2]int with u < v) and the total weight.
func ExactKMatching(n, k int, weight func(u, v int) float64) ([][2]int, float64, error) {
	if n < 0 || n > 20 {
		return nil, 0, fmt.Errorf("core: ExactKMatching: n = %d, supported range [0,20]", n)
	}
	if k < 0 || 2*k > n {
		return nil, 0, fmt.Errorf("core: ExactKMatching: k = %d infeasible for n = %d", k, n)
	}
	if k == 0 {
		return nil, 0, nil
	}
	size := 1 << n
	const minusInf = math.MaxFloat64
	// dp[mask] = max weight of a perfect matching on exactly the vertices in
	// mask; -minusInf marks infeasible (odd popcount etc.).
	dp := make([]float64, size)
	choice := make([]int32, size) // packed (u<<8|v) of the edge matched with the lowest set bit
	for m := 1; m < size; m++ {
		dp[m] = -minusInf
		choice[m] = -1
	}
	for m := 1; m < size; m++ {
		pc := popcount(m)
		if pc%2 != 0 {
			continue
		}
		u := lowestBit(m)
		rest := m &^ (1 << u)
		for v := u + 1; v < n; v++ {
			if rest&(1<<v) == 0 {
				continue
			}
			prev := rest &^ (1 << v)
			if dp[prev] == -minusInf {
				continue
			}
			if w := dp[prev] + weight(u, v); w > dp[m] {
				dp[m] = w
				choice[m] = int32(u<<8 | v)
			}
		}
	}
	bestMask, bestW := -1, -minusInf
	want := 2 * k
	for m := 0; m < size; m++ {
		if popcount(m) == want && dp[m] > bestW {
			bestMask, bestW = m, dp[m]
		}
	}
	if bestMask < 0 {
		return nil, 0, fmt.Errorf("core: ExactKMatching: no feasible matching (internal error)")
	}
	var pairs [][2]int
	for m := bestMask; m != 0; {
		c := choice[m]
		u, v := int(c>>8), int(c&0xff)
		pairs = append(pairs, [2]int{u, v})
		m &^= (1 << u) | (1 << v)
	}
	return pairs, bestW, nil
}

// HRTMatchingBased runs the Hassin–Rubinstein–Tamir matching-based
// (2 − 1/⌈p/2⌉)-approximation for max-sum diversification with modular f on
// small instances (n ≤ 20): take the vertices of a maximum-weight ⌊p/2⌋-edge
// matching under the Gollapudi–Sharma reduced weights, then (for odd p) the
// best remaining vertex.
func HRTMatchingBased(obj *Objective, p int) (*Solution, error) {
	if err := checkP(obj, p); err != nil {
		return nil, err
	}
	mod, err := requireModular(obj)
	if err != nil {
		return nil, err
	}
	n := obj.N()
	st := obj.NewState()
	if p >= 2 {
		reduced := func(u, v int) float64 {
			return mod.Weight(u) + mod.Weight(v) + 2*obj.lambda*obj.d.Distance(u, v)
		}
		pairs, _, err := ExactKMatching(n, p/2, reduced)
		if err != nil {
			return nil, err
		}
		for _, e := range pairs {
			st.Add(e[0])
			st.Add(e[1])
		}
	}
	if err := st.fill(nil, nil, p, true); err != nil {
		return nil, err
	}
	return solutionFromState(st, 0), nil
}

func requireModular(obj *Objective) (*modularWeights, error) {
	type weighted interface{ Weight(u int) float64 }
	if m, ok := obj.f.(weighted); ok {
		return &modularWeights{m}, nil
	}
	return nil, fmt.Errorf("core: algorithm requires a modular quality function, got %T", obj.f)
}

type modularWeights struct {
	inner interface{ Weight(u int) float64 }
}

func (m *modularWeights) Weight(u int) float64 { return m.inner.Weight(u) }

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func lowestBit(x int) int {
	b := 0
	for x&1 == 0 {
		x >>= 1
		b++
	}
	return b
}
