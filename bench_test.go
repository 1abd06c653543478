// Benchmarks regenerating every table and figure of the paper's Section 7
// evaluation (one Benchmark per exhibit), plus micro-benchmarks and
// ablations for the design choices DESIGN.md calls out.
//
// The table benches run the paper-scale configurations where cheap (Tables
// 1–8, Appendix) and a reduced Figure 1 (its exact-OPT recomputation
// dominates; use cmd/experiments -full for paper scale). Run with:
//
//	go test -bench=. -benchmem
package maxsumdiv_test

import (
	"context"
	"math/rand"
	"testing"

	"maxsumdiv"
	"maxsumdiv/internal/core"
	"maxsumdiv/internal/dataset"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/experiments"
	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
	"maxsumdiv/internal/stream"
)

// --- one bench per paper exhibit -----------------------------------------

func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultTable1Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

func BenchmarkTable2(b *testing.B) {
	cfg := experiments.DefaultTable2Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

func BenchmarkTable3(b *testing.B) {
	cfg := experiments.DefaultTable3Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

func BenchmarkTable4(b *testing.B) {
	cfg := experiments.DefaultTable4Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

func BenchmarkTable5(b *testing.B) {
	cfg := experiments.DefaultTable5Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

func BenchmarkTable6(b *testing.B) {
	cfg := experiments.DefaultTable6Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

func BenchmarkTable7(b *testing.B) {
	cfg := experiments.DefaultTable7Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

func BenchmarkTable8(b *testing.B) {
	cfg := experiments.DefaultTable8Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Blocks)
	}
}

func BenchmarkFigure1(b *testing.B) {
	cfg := experiments.QuickFigure1Config()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

func BenchmarkAppendixGreedyFailure(b *testing.B) {
	cfg := experiments.DefaultAppendixConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAppendix(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sinkLen = len(res.Rows)
	}
}

// --- algorithm micro-benchmarks (paper scale: N=500, λ=0.2) --------------

var (
	sinkLen int
	sinkVal float64
)

func syntheticObjective(b *testing.B, n int) *core.Objective {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	inst := dataset.Synthetic(n, rng)
	obj, err := inst.Objective(0.2)
	if err != nil {
		b.Fatal(err)
	}
	return obj
}

func BenchmarkGreedyB_N500_p50(b *testing.B) {
	obj := syntheticObjective(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.GreedyB(obj, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

func BenchmarkGreedyA_N500_p50(b *testing.B) {
	obj := syntheticObjective(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.GreedyA(obj, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

func BenchmarkLocalSearch_N200_p20(b *testing.B) {
	obj := syntheticObjective(b, 200)
	uni, _ := matroid.NewUniform(200, 20)
	g, err := core.GreedyB(obj, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.LocalSearch(obj, uni, &core.LSOptions{Init: g.Members})
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

func BenchmarkExact_N30_p5(b *testing.B) {
	obj := syntheticObjective(b, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Exact(obj, 5, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

func BenchmarkStateAdd_N500(b *testing.B) {
	obj := syntheticObjective(b, 500)
	st := obj.NewState()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % 500
		if st.Contains(u) {
			st.Remove(u)
		} else {
			st.Add(u)
		}
	}
}

// --- ablations (design choices called out in DESIGN.md) ------------------

// Ablation: branch-and-bound pruning in the exact solver.
func BenchmarkAblationExactPruned_N25_p5(b *testing.B) {
	obj := syntheticObjective(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Exact(obj, 5, &core.ExactOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

func BenchmarkAblationExactUnpruned_N25_p5(b *testing.B) {
	obj := syntheticObjective(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Exact(obj, 5, &core.ExactOptions{NoPrune: true})
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

// Ablation: parallel vs serial exact search.
func BenchmarkAblationExactParallel_N40_p5(b *testing.B) {
	obj := syntheticObjective(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Exact(obj, 5, &core.ExactOptions{Parallel: true})
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

func BenchmarkAblationExactSerial_N40_p5(b *testing.B) {
	obj := syntheticObjective(b, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Exact(obj, 5, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

// Ablation: the improved (best-pair) greedy start costs O(n²) — measure it.
func BenchmarkAblationGreedyBPlain_N500_p20(b *testing.B) {
	obj := syntheticObjective(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.GreedyB(obj, 20)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

func BenchmarkAblationGreedyBBestPair_N500_p20(b *testing.B) {
	obj := syntheticObjective(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.GreedyB(obj, 20, core.WithBestPairStart())
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

// Ablation: the paper's non-oblivious potential (½f) vs the naive oblivious
// rule (full f marginal) — same cost, different guarantees; see
// TestNonObliviousPotentialMatters for the quality side.
func BenchmarkAblationGreedyPotentialRule_N500_p50(b *testing.B) {
	obj := syntheticObjective(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.GreedyB(obj, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

func BenchmarkAblationGreedyObliviousRule_N500_p50(b *testing.B) {
	obj := syntheticObjective(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.GreedyOblivious(obj, 50)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

// Streaming throughput: items per second through the O(p²) window.
func BenchmarkStreamOffer_p10(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s, err := stream.New(10, 0.5, func(a, c stream.Item) float64 {
		var sum float64
		for k := range a.Vec {
			d := a.Vec[k] - c.Vec[k]
			sum += d * d
		}
		return sum
	})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]stream.Item, 1024)
	for i := range items {
		items[i] = stream.Item{Weight: rng.Float64(), Vec: []float64{rng.Float64(), rng.Float64()}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Offer(items[i%len(items)]); err != nil {
			b.Fatal(err)
		}
	}
}

// Knapsack heuristic at moderate scale.
func BenchmarkGreedyKnapsack_N100(b *testing.B) {
	obj := syntheticObjective(b, 100)
	rng := rand.New(rand.NewSource(3))
	costs := make([]float64, 100)
	for i := range costs {
		costs[i] = 0.2 + rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.GreedyKnapsack(obj, costs, 6, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

// Ablation: modular fast path vs generic evaluator in SwapGain-heavy local
// search (the same weights expressed as a Sum of two Modulars disable the
// fast path).
func BenchmarkAblationLSModularFastPath_N100_p10(b *testing.B) {
	benchLSQuality(b, true)
}

func BenchmarkAblationLSGenericEvaluator_N100_p10(b *testing.B) {
	benchLSQuality(b, false)
}

func benchLSQuality(b *testing.B, fastPath bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	inst := dataset.Synthetic(100, rng)
	var f setfunc.Source
	if fastPath {
		mod, err := setfunc.NewModular(inst.Weights)
		if err != nil {
			b.Fatal(err)
		}
		f = mod
	} else {
		half := make([]float64, len(inst.Weights))
		for i, w := range inst.Weights {
			half[i] = w / 2
		}
		m1, _ := setfunc.NewModular(half)
		m2, _ := setfunc.NewModular(half)
		sum, err := setfunc.NewSum(m1, m2)
		if err != nil {
			b.Fatal(err)
		}
		f = sum
	}
	obj, err := core.NewObjective(f, 0.2, inst.Dist)
	if err != nil {
		b.Fatal(err)
	}
	uni, _ := matroid.NewUniform(100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.LocalSearch(obj, uni, nil)
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}

// --- parallel engine + cached metric (production scale, n ≥ 10k) ---------
//
// A 10k-point dense matrix is ~400 MB, so these benches use the lazy
// memoized Euclidean metric — the backend WithLazyDistances selects — and
// compare the serial scans against the engine at GOMAXPROCS workers.

// bigCachedObjective builds a modular objective over n random points with
// the striped-cache distance backend.
func bigCachedObjective(b *testing.B, n int) *core.Objective {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	pts := make([][]float64, n)
	weights := make([]float64, n)
	for i := range pts {
		// Embedding-scale dimensionality: recomputing a distance costs ~128
		// flops, which is what the memoizing cache amortizes away.
		pts[i] = make([]float64, 128)
		for d := range pts[i] {
			pts[i][d] = rng.Float64()
		}
		weights[i] = rng.Float64()
	}
	raw, err := metric.NewPoints(pts, metric.L2)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := setfunc.NewModular(weights)
	if err != nil {
		b.Fatal(err)
	}
	obj, err := core.NewObjective(mod, 0.2, metric.NewCached(raw))
	if err != nil {
		b.Fatal(err)
	}
	return obj
}

// poolVariants orders the serial/parallel sub-benchmarks deterministically.
var poolVariants = []struct {
	name string
	pool *engine.Pool
}{
	{"serial", nil},
	{"parallel", engine.Default()},
}

func BenchmarkParallelGreedyB_N10000_p64(b *testing.B) {
	obj := bigCachedObjective(b, 10_000)
	if _, err := core.GreedyB(obj, 64); err != nil { // warm the distance cache
		b.Fatal(err)
	}
	for _, v := range poolVariants {
		name, pool := v.name, v.pool
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.GreedyB(obj, 64, core.WithPool(pool))
				if err != nil {
					b.Fatal(err)
				}
				sinkVal = sol.Value
			}
		})
	}
}

func BenchmarkParallelLocalSearch_N10000_p32(b *testing.B) {
	obj := bigCachedObjective(b, 10_000)
	uni, err := matroid.NewUniform(10_000, 32)
	if err != nil {
		b.Fatal(err)
	}
	init, err := core.GreedyB(obj, 32) // also warms the distance cache
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range poolVariants {
		name, pool := v.name, v.pool
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.LocalSearch(obj, uni, &core.LSOptions{
					Init: init.Members, MaxSwaps: 3, Pool: pool,
				})
				if err != nil {
					b.Fatal(err)
				}
				sinkVal = sol.Value
			}
		})
	}
}

// The Table 3 improved greedy on the WithFloat32 backend, called without a
// pair cache: every solve's pass over the C(n,2) pairs to build the pair
// frontier dominates, read as contiguous float32 rows and split across the
// pool by equal pair count.
func BenchmarkParallelGreedyImproved_N2000_p10(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(29))
	pts := make([][]float64, n)
	weights := make([]float64, n)
	for i := range pts {
		pts[i] = make([]float64, 64)
		for d := range pts[i] {
			pts[i][d] = rng.Float64()
		}
		weights[i] = rng.Float64()
	}
	raw, err := metric.NewPoints(pts, metric.L2)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := setfunc.NewModular(weights)
	if err != nil {
		b.Fatal(err)
	}
	obj, err := core.NewObjective(mod, 0.2, metric.MaterializeF32(raw))
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range poolVariants {
		name, pool := v.name, v.pool
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := core.GreedyB(obj, 10, core.WithBestPairStart(), core.WithPool(pool))
				if err != nil {
					b.Fatal(err)
				}
				sinkVal = sol.Value
			}
		})
	}
}

// Pure engine scaling: one argmax over a million candidates with a
// compute-bound scorer, no memory effects.
func BenchmarkEngineArgMax_N1M(b *testing.B) {
	const n = 1 << 20
	score := func(u int) (float64, bool) {
		x := float64(u%9973) * 1.0000001
		x = x*x - float64(u%31)*x + 3
		return x, true
	}
	for _, v := range poolVariants {
		name, pool := v.name, v.pool
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				best := pool.ArgMax(n, func(int) engine.Scorer { return score })
				sinkVal = best.Value
			}
		})
	}
}

// Cached-vs-recompute: the same local search against the raw computed
// metric and against the memoizing cache (every pass rescans the same
// O(n·p) pairs, so the cache pays from pass two onward).
func BenchmarkMetricBackendLocalSearch_N4000_p24(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	n := 4000
	pts := make([][]float64, n)
	weights := make([]float64, n)
	for i := range pts {
		pts[i] = make([]float64, 128) // embedding-scale: see bigCachedObjective
		for d := range pts[i] {
			pts[i][d] = rng.Float64()
		}
		weights[i] = rng.Float64()
	}
	raw, err := metric.NewPoints(pts, metric.L2)
	if err != nil {
		b.Fatal(err)
	}
	uni, err := matroid.NewUniform(n, 24)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		d    metric.Metric
	}{{"recompute", raw}, {"cached", metric.NewCached(raw)}} {
		name, d := v.name, v.d
		b.Run(name, func(b *testing.B) {
			mod, err := setfunc.NewModular(weights)
			if err != nil {
				b.Fatal(err)
			}
			obj, err := core.NewObjective(mod, 0.2, d)
			if err != nil {
				b.Fatal(err)
			}
			init, err := core.GreedyB(obj, 24)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := core.LocalSearch(obj, uni, &core.LSOptions{Init: init.Members, MaxSwaps: 2})
				if err != nil {
					b.Fatal(err)
				}
				sinkVal = sol.Value
			}
		})
	}
}

// Public-API end-to-end benchmark: the quickstart pipeline at modest scale.
func BenchmarkPublicAPIGreedy_N200_p10(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	items := make([]maxsumdiv.Item, 200)
	for i := range items {
		items[i] = maxsumdiv.Item{
			ID:     string(rune('a' + i%26)),
			Weight: rng.Float64(),
			Vector: []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
		}
	}
	ix, err := maxsumdiv.NewIndex(items, maxsumdiv.WithLambda(0.3))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := ix.Query(ctx, maxsumdiv.Query{K: 10, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		sinkVal = sol.Value
	}
}
