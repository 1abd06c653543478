package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// multiLambdaInstance builds a modular-quality objective over the given
// metric; the objective's own λ is a placeholder (SolveMultiTrace ignores
// it, and solo comparison runs rebuild the objective per target λ).
func multiLambdaInstance(t testing.TB, n int, d metric.Metric, rng *rand.Rand) (*setfunc.Modular, *Objective) {
	t.Helper()
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	mod, err := setfunc.NewModular(w)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewObjective(mod, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	return mod, obj
}

// vecMetricForTest builds a compute-on-demand vector snapshot (the backend
// whose row folds the multi-λ solve exists to share).
func vecMetricForTest(t testing.TB, n, dim int, rng *rand.Rand) metric.Metric {
	t.Helper()
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for k := range v {
			v[k] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	s, err := metric.NewVecStoreFromVectors(metric.KindVecF32, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s.Snapshot()
}

// TestSolveMultiTraceMatchesSolo pins the tentpole contract: a multi-λ
// shared solve answers every (λ, K) target bit-identically — same picks,
// same floating-point values — to a solo greedy of that target, replayed on
// the frozen reference scans (refGreedy, kernel_test.go). Runs
// across both greedy variants, dense and vector metrics, and serial and
// parallel pools, with λ sets chosen so branches diverge mid-run.
func TestSolveMultiTraceMatchesSolo(t *testing.T) {
	const n, dim = 120, 16
	rng := rand.New(rand.NewSource(71))
	dense := metric.NewDense(n)
	dense.Fill(func(i, j int) float64 { return 1 + rng.Float64() })
	metrics := []struct {
		name string
		d    metric.Metric
	}{
		{"dense-f64", dense},
		{"vec-f32-snap", vecMetricForTest(t, n, dim, rng)},
	}
	targetSets := [][]LambdaTarget{
		{{Lambda: 0.5, K: 10}},
		{{Lambda: 0.5, K: 8}, {Lambda: 0.5, K: 12}},                     // same λ, different K: one branch
		{{Lambda: 0.1, K: 10}, {Lambda: 1.0, K: 10}, {Lambda: 5, K: 6}}, // divergent branches
		{{Lambda: 0, K: 5}, {Lambda: 0.7, K: 15}, {Lambda: 0.7, K: 3}, {Lambda: 2.5, K: 9}},
		{{Lambda: 1.2, K: 0}, {Lambda: 0.4, K: 7}}, // K = 0 target records nothing
	}
	for _, m := range metrics {
		for _, algo := range []Algo{AlgoGreedy, AlgoOblivious} {
			for _, pool := range []*engine.Pool{nil, engine.New(4)} {
				for si, targets := range targetSets {
					mrng := rand.New(rand.NewSource(int64(91 + si)))
					mod, obj := multiLambdaInstance(t, n, m.d, mrng)
					traces, err := SolveMultiTrace(obj, Spec{Algo: algo, Pool: pool}, targets)
					if err != nil {
						t.Fatalf("%s algo=%d set=%d: %v", m.name, algo, si, err)
					}
					if len(traces) != len(targets) {
						t.Fatalf("%s algo=%d set=%d: %d traces for %d targets", m.name, algo, si, len(traces), len(targets))
					}
					for j, target := range targets {
						solObj, err := NewObjective(mod, target.Lambda, m.d)
						if err != nil {
							t.Fatal(err)
						}
						_, want := refGreedy(solObj, target.K, pool, algo == AlgoOblivious, false)
						got := traces[j]
						if !slices.Equal(got.Order, want.Order) {
							t.Fatalf("%s algo=%d set=%d target=%d (λ=%g K=%d): order %v, solo %v",
								m.name, algo, si, j, target.Lambda, target.K, got.Order, want.Order)
						}
						if !slices.Equal(got.Value, want.Value) || !slices.Equal(got.FValue, want.FValue) ||
							!slices.Equal(got.Dispersion, want.Dispersion) {
							t.Fatalf("%s algo=%d set=%d target=%d (λ=%g K=%d): values diverge from solo\n got %v %v %v\nwant %v %v %v",
								m.name, algo, si, j, target.Lambda, target.K,
								got.Value, got.FValue, got.Dispersion,
								want.Value, want.FValue, want.Dispersion)
						}
					}
				}
			}
		}
	}
}

// TestSolveMultiTraceValidation pins the error contract: several targets
// of a non-foldable algorithm or of non-modular quality, non-nested
// algorithms, and invalid targets are rejected.
func TestSolveMultiTraceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	obj := randInstance(t, 20, 0.5, rng)
	two := []LambdaTarget{{Lambda: 1, K: 2}, {Lambda: 0.5, K: 3}}
	if _, err := SolveMultiTrace(obj, Spec{Algo: AlgoGreedyImproved}, two); err == nil {
		t.Fatal("best-pair opening accepted for two targets; its opening is λ-dependent")
	}
	for _, algo := range []Algo{AlgoLocalSearch, AlgoExact, AlgoGollapudiSharma} {
		if _, err := SolveMultiTrace(obj, Spec{Algo: algo}, []LambdaTarget{{Lambda: 1, K: 2}}); err == nil {
			t.Fatalf("non-nested algorithm %d accepted", algo)
		}
	}
	if _, err := SolveMultiTrace(obj, Spec{Algo: AlgoGreedy}, []LambdaTarget{{Lambda: -1, K: 2}}); err == nil {
		t.Fatal("negative λ accepted")
	}
	if _, err := SolveMultiTrace(obj, Spec{Algo: AlgoGreedy}, []LambdaTarget{{Lambda: 1, K: 21}}); err == nil {
		t.Fatal("K beyond ground size accepted")
	}
	sub := randSubmodularInstance(t, 20, 8, 0.5, rng)
	if _, err := SolveMultiTrace(sub, Spec{Algo: AlgoGreedy}, two); err == nil {
		t.Fatal("submodular quality accepted for two targets; the fold requires modular weights")
	}
	if traces, err := SolveMultiTrace(obj, Spec{Algo: AlgoGreedy}, nil); err != nil || len(traces) != 0 {
		t.Fatalf("empty targets: %v traces, err %v", traces, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveMultiTrace(obj, Spec{Algo: AlgoGreedy, Ctx: ctx}, []LambdaTarget{{Lambda: 1, K: 2}}); err == nil {
		t.Fatal("cancelled context accepted")
	}
}

// TestMultiLambdaCapable pins which algorithms the dispatcher may fold.
func TestMultiLambdaCapable(t *testing.T) {
	for algo, want := range map[Algo]bool{
		AlgoGreedy:          true,
		AlgoOblivious:       true,
		AlgoGreedyImproved:  false,
		AlgoLocalSearch:     false,
		AlgoExact:           false,
		AlgoGollapudiSharma: false,
	} {
		if got := MultiLambdaCapable(algo); got != want {
			t.Fatalf("MultiLambdaCapable(%d) = %v, want %v", algo, got, want)
		}
	}
}
