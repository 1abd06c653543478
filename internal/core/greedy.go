package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// edge is a weighted unordered vertex pair used by the edge-greedy scans.
type edge struct {
	u, v int
	w    float64
}

// GreedyOption configures GreedyB and GreedyA.
type GreedyOption func(*greedyCfg)

type greedyCfg struct {
	bestPairStart bool            // Greedy B: seed with the best pair (Table 3 variant)
	bestLastPick  bool            // Greedy A: pick the best (not arbitrary) odd leftover
	pool          *engine.Pool    // nil = serial
	ctx           context.Context // nil = never cancelled
}

// newGreedyCfg applies the options.
func newGreedyCfg(opts []GreedyOption) greedyCfg {
	var cfg greedyCfg
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithBestPairStart makes GreedyB open with the pair maximizing the potential
// ½f({x,y}) + λd(x,y) instead of the best singleton. This is the "improved
// Greedy B" of the paper's Table 3; it does not change the approximation
// guarantee.
func WithBestPairStart() GreedyOption {
	return func(c *greedyCfg) { c.bestPairStart = true }
}

// WithBestLastVertex makes GreedyA complete an odd-p solution with the
// leftover vertex of maximum marginal objective gain instead of an arbitrary
// one — the "improved Greedy A" of Table 3.
func WithBestLastVertex() GreedyOption {
	return func(c *greedyCfg) { c.bestLastPick = true }
}

// WithPool shards every candidate scan (marginal potentials, edge weights,
// pair openings) across the pool's workers. Selection rules are total
// orders, so any pool returns exactly the serial solution; a nil pool (the
// default) runs serially.
func WithPool(p *engine.Pool) GreedyOption {
	return func(c *greedyCfg) { c.pool = p }
}

// WithContext makes the solve honor ctx: cancellation or deadline expiry
// aborts mid-scan (the engine polls the context once per scan stride) and
// the solver returns ctx.Err(). A nil ctx (the default) never cancels.
func WithContext(ctx context.Context) GreedyOption {
	return func(c *greedyCfg) { c.ctx = ctx }
}

// GreedyB runs the paper's non-oblivious greedy (Section 4): starting from
// the empty set, repeatedly add the element u maximizing the potential
//
//	φ′_u(S) = ½·f_u(S) + λ·d_u(S)
//
// until |S| = p. For normalized monotone submodular f and metric d this is a
// 2-approximation (Theorem 1); with f ≡ 0 it is exactly the Ravi et al.
// dispersion greedy (Corollary 1). Runs in O(np) marginal evaluations.
//
// Ties break toward the lowest index, so runs are deterministic.
func GreedyB(obj *Objective, p int, opts ...GreedyOption) (*Solution, error) {
	cfg := newGreedyCfg(opts)
	return greedySolo(obj, p, cfg, false, cfg.bestPairStart)
}

// greedySolo runs one untraced greedy solve to p through the round driver:
// the potential rule (the objective marginal when oblivious), opened with
// the Table 3 best pair when bestPair is set.
func greedySolo(obj *Objective, p int, cfg greedyCfg, oblivious, bestPair bool) (*Solution, error) {
	if err := checkP(obj, p); err != nil {
		return nil, err
	}
	st := obj.AcquireState()
	defer obj.ReleaseState(st)
	g := st.startSolo(cfg.ctx, cfg.pool, p, oblivious)
	defer g.finish()
	if err := g.run(bestPair); err != nil {
		return nil, err
	}
	return solutionFromState(st, 0), nil
}

// GreedyA runs the Gollapudi–Sharma algorithm the paper benchmarks against
// (Section 7): reduce max-sum diversification with modular f to max-sum
// dispersion under the derived metric
//
//	d′(u,v) = w(u) + w(v) + 2λ·d(u,v)
//
// and solve the dispersion instance with the Hassin–Rubinstein–Tamir greedy
// that repeatedly takes the heaviest edge disjoint from all chosen edges
// (⌊p/2⌋ edges). When p is odd the paper's baseline completes with an
// arbitrary remaining vertex — here the lowest-index one, or the best one
// under WithBestLastVertex (Table 3's "improved Greedy A").
//
// The reduction is only defined for modular f; GreedyA returns an error for
// any other quality function, mirroring the paper's observation that the
// reduction "does not apply to the submodular case".
func GreedyA(obj *Objective, p int, opts ...GreedyOption) (*Solution, error) {
	if err := checkP(obj, p); err != nil {
		return nil, err
	}
	mod, ok := obj.f.(*setfunc.Modular)
	if !ok {
		return nil, fmt.Errorf("core: GreedyA requires a modular quality function, got %T", obj.f)
	}
	cfg := newGreedyCfg(opts)
	n := obj.N()
	st := obj.AcquireState()
	defer obj.ReleaseState(st)
	reduced := func(u, v int) float64 {
		return mod.Weight(u) + mod.Weight(v) + 2*obj.lambda*obj.d.Distance(u, v)
	}
	pairs := heaviestDisjointEdges(cfg.ctx, n, p/2, reduced, cfg.pool)
	if err := ctxErr(cfg.ctx); err != nil {
		return nil, err
	}
	for _, e := range pairs {
		st.Add(e[0])
		st.Add(e[1])
	}
	if st.Size() < p { // odd p (or ran out of edges)
		// p = 1 has no edge to reduce to; it takes the best vertex, the
		// objective-marginal argmax of the empty set.
		if cfg.bestLastPick || p == 1 {
			if err := st.fill(cfg.ctx, cfg.pool, p, true); err != nil {
				return nil, err
			}
		} else {
			for u := 0; u < n && st.Size() < p; u++ {
				if !st.Contains(u) {
					st.Add(u)
				}
			}
		}
	}
	return solutionFromState(st, 0), nil
}

// heaviestDisjointEdges returns up to k vertex-disjoint edges chosen by
// scanning all C(n,2) edges in decreasing weight (ties toward lexicographic
// order), i.e. the greedy maximal matching by weight. Edge-weight
// evaluation — the O(n²) hot half of Greedy A — shards across the pool by
// row; the sort's comparator is a total order, so the result is
// deterministic regardless of materialization order.
func heaviestDisjointEdges(ctx context.Context, n, k int, weight func(u, v int) float64, pool *engine.Pool) [][2]int {
	if k <= 0 || n < 2 {
		return nil
	}
	// Shard over pair indices rather than rows: row v holds v pairs, so
	// equal row ranges would leave the last shard with ~2× the average
	// work. Pair index k lives in row v at offset u = k − v(v−1)/2.
	edges := make([]edge, n*(n-1)/2)
	pool.For(len(edges), func(_, lo, hi int) {
		v := rowOfPair(lo)
		base := v * (v - 1) / 2
		for k := lo; k < hi; {
			// The materialization is the O(n²) bulk of Greedy A; honor a
			// cancel once per row so a hung client stops paying for it.
			if ctxErr(ctx) != nil {
				return
			}
			for u := k - base; u < v && k < hi; u, k = u+1, k+1 {
				edges[k] = edge{u, v, weight(u, v)}
			}
			v++
			base = v * (v - 1) / 2
		}
	})
	if ctxErr(ctx) != nil {
		return nil
	}
	sortEdgesByWeightDesc(edges)
	used := make([]bool, n)
	var out [][2]int
	for _, e := range edges {
		if used[e.u] || used[e.v] {
			continue
		}
		used[e.u], used[e.v] = true, true
		out = append(out, [2]int{e.u, e.v})
		if len(out) == k {
			break
		}
	}
	return out
}

// GreedyOblivious is the ablation of the paper's key design choice: a
// greedy that maximizes the *objective* marginal φ_u(S) = f_u(S) + λ·d_u(S)
// directly instead of the non-oblivious potential φ′_u(S) = ½f_u(S) + λ·d_u(S).
// Theorem 1's proof needs the ½ factor; this variant carries no guarantee
// and exists to measure what the non-obliviousness buys (see the ablation
// benchmarks and TestNonObliviousPotentialMatters).
func GreedyOblivious(obj *Objective, p int, opts ...GreedyOption) (*Solution, error) {
	return greedySolo(obj, p, newGreedyCfg(opts), true, false)
}

// DispersionGreedy solves max-sum p-dispersion (PROBLEM 1, f ≡ 0) with the
// paper's greedy; per Corollary 1 this coincides with the Ravi et al. greedy
// and is a 2-approximation.
func DispersionGreedy(d metric.Metric, p int) (*Solution, error) {
	obj, err := NewObjective(setfunc.Zero(d.Len()), 1, d)
	if err != nil {
		return nil, err
	}
	return GreedyB(obj, p)
}

// rowOfPair returns the row v whose triangular range [v(v−1)/2, v(v+1)/2)
// contains pair index k; the float sqrt is a seed corrected exactly.
func rowOfPair(k int) int {
	v := int((1 + math.Sqrt(1+8*float64(k))) / 2)
	for v > 1 && v*(v-1)/2 > k {
		v--
	}
	for (v+1)*v/2 <= k {
		v++
	}
	return v
}

// sortEdgesByWeightDesc orders edges by decreasing weight, breaking ties
// lexicographically so runs are deterministic.
func sortEdgesByWeightDesc(edges []edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		return edges[i].v < edges[j].v
	})
}

// checkP validates a cardinality target against the objective.
func checkP(obj *Objective, p int) error {
	if p < 0 {
		return fmt.Errorf("core: p = %d, want ≥ 0", p)
	}
	if p > obj.N() {
		return fmt.Errorf("core: p = %d exceeds ground size %d", p, obj.N())
	}
	return nil
}
