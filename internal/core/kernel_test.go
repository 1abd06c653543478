package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// This file freezes the closure-based scorers the modular scans ran on
// before the slice kernels (kernel.go) — one engine scorer closure, one
// Evaluator.Marginal and one Metric.Distance call per candidate — as
// references, and pins every solver built on the kernels to them bit for
// bit: picks, values, traces and swap counts, across backends, worker
// counts and tied weights.

// refArgmax is the frozen closure argmax: the potential (or, oblivious,
// the objective marginal) of every non-member through the evaluator.
func refArgmax(st *State, pool *engine.Pool, oblivious bool) engine.Best {
	return pool.ArgMax(st.obj.N(), func(int) engine.Scorer {
		ev := st.f
		return func(u int) (float64, bool) {
			if st.in[u] {
				return 0, false
			}
			if oblivious {
				return objScore(ev.Marginal(u), st.obj.lambda, st.du[u]), true
			}
			return potScore(ev.Marginal(u), st.obj.lambda, st.du[u]), true
		}
	})
}

// refBestPotentialPair is the frozen Table 3 opening scan.
func refBestPotentialPair(obj *Objective, pool *engine.Pool) (int, int) {
	n := obj.N()
	b := pool.ArgMaxPair(n, func(int) engine.PairScorer {
		ev := obj.f.NewEvaluator()
		return func(x int) (float64, int, bool) {
			ev.Reset()
			ev.Add(x)
			fx := ev.Value()
			by, bestVal := -1, 0.0
			for y := x + 1; y < n; y++ {
				v := 0.5*(fx+ev.Marginal(y)) + obj.lambda*obj.d.Distance(x, y)
				if by == -1 || v > bestVal {
					by, bestVal = y, v
				}
			}
			if by == -1 {
				return 0, 0, false
			}
			return bestVal, by, true
		}
	})
	return b.Index, b.Aux
}

// refBestIndependentPair is the frozen Section 5 seed scan.
func refBestIndependentPair(obj *Objective, m matroid.Matroid, pool *engine.Pool) (int, int, bool) {
	n := obj.N()
	b := pool.ArgMaxPair(n, func(int) engine.PairScorer {
		ev := obj.f.NewEvaluator()
		taken := false
		localBest := 0.0
		return func(x int) (float64, int, bool) {
			ev.Reset()
			ev.Add(x)
			fx := ev.Value()
			by, rowBest := -1, 0.0
			for y := x + 1; y < n; y++ {
				v := fx + ev.Marginal(y) + obj.lambda*obj.d.Distance(x, y)
				if (taken && v <= localBest) || (by != -1 && v <= rowBest) {
					continue
				}
				if !m.Independent([]int{x, y}) {
					continue
				}
				by, rowBest = y, v
			}
			if by == -1 {
				return 0, 0, false
			}
			if !taken || rowBest > localBest {
				taken, localBest = true, rowBest
			}
			return rowBest, by, true
		}
	})
	return b.Index, b.Aux, b.Index != -1
}

// refBestSwap is the frozen swap scan, with the modular swap gain spelled
// out as it was computed per pair.
func refBestSwap(st *State, pool *engine.Pool, members []int, threshold float64, canSwap func(out, in int) bool) engine.Best {
	return pool.ArgMaxPair(st.obj.N(), func(int) engine.PairScorer {
		return func(in int) (float64, int, bool) {
			if st.in[in] {
				return 0, 0, false
			}
			bestOut, bestGain := -1, threshold
			for _, out := range members {
				dGain := st.du[in] - st.obj.d.Distance(in, out) - st.du[out]
				fGain := st.modular.Weight(in) - st.modular.Weight(out)
				g := fGain + st.obj.lambda*dGain
				if g <= bestGain {
					continue
				}
				if canSwap != nil && !canSwap(out, in) {
					continue
				}
				bestOut, bestGain = out, g
			}
			if bestOut == -1 {
				return 0, 0, false
			}
			return bestGain, bestOut, true
		}
	})
}

// record captures the working set right after adding u, as traced greedy
// runs recorded before they shared the round driver.
func (t *GreedyTrace) record(st *State, u int) {
	t.Order = append(t.Order, u)
	t.Value = append(t.Value, st.Value())
	t.FValue = append(t.FValue, st.FValue())
	t.Dispersion = append(t.Dispersion, st.Dispersion())
}

// soloTrace is a traced solve of spec.K under the objective's own λ: the
// one-target SolveMultiTrace.
func soloTrace(obj *Objective, spec Spec) (*GreedyTrace, error) {
	trs, err := SolveMultiTrace(obj, spec, []LambdaTarget{{Lambda: obj.Lambda(), K: spec.K}})
	if err != nil {
		return nil, err
	}
	return trs[0], nil
}

// refGreedy replays GreedyB (bestPair: the Table 3 opening) or, oblivious,
// GreedyOblivious on the reference scans, recording the trace.
func refGreedy(obj *Objective, p int, pool *engine.Pool, oblivious, bestPair bool) (*Solution, *GreedyTrace) {
	st := obj.NewState()
	tr := &GreedyTrace{}
	if bestPair && p >= 2 {
		x, y := refBestPotentialPair(obj, pool)
		st.Add(x)
		tr.record(st, x)
		st.Add(y)
		tr.record(st, y)
	}
	for st.Size() < p {
		b := refArgmax(st, pool, oblivious)
		if b.Index == -1 {
			break
		}
		st.Add(b.Index)
		tr.record(st, b.Index)
	}
	return solutionFromState(st, 0), tr
}

// refLocalSearch replays LocalSearch (no thresholds beyond the default
// guard) on the reference scans.
func refLocalSearch(t *testing.T, obj *Objective, m matroid.Matroid, init []int, pool *engine.Pool) *Solution {
	t.Helper()
	seed := init
	if seed == nil {
		x, y, ok := refBestIndependentPair(obj, m, pool)
		if !ok {
			t.Fatal("reference: no independent pair")
		}
		seed = []int{x, y}
	}
	start, err := matroid.ExtendToBasis(m, seed)
	if err != nil {
		t.Fatal(err)
	}
	st := obj.NewState()
	for _, u := range start {
		st.Add(u)
	}
	var canSwap func(out, in int) bool
	members := append([]int(nil), st.members...)
	if _, uniform := m.(matroid.Uniform); !uniform {
		canSwap = func(out, in int) bool { return matroid.CanSwap(m, members, out, in) }
	}
	swaps := 0
	for {
		b := refBestSwap(st, pool, members, 1e-12, canSwap)
		if b.Index == -1 {
			break
		}
		st.Swap(b.Aux, b.Index)
		members = append(members[:0], st.members...)
		swaps++
	}
	return solutionFromState(st, swaps)
}

// kernelBackend is one named distance backend of the identity sweeps.
type kernelBackend struct {
	name string
	d    metric.Metric
}

// kernelBackends builds the same cosine geometry over n points on every
// backend family the kernels specialize: the DenseF32 direct rows, the
// AccumulateRow-staged stored triangles (Dense, Tri snapshots with and
// without a live permutation), the compute-on-demand vector snapshot, and
// a plain metric.Func view (Distance calls only). Points 0 and 7 coincide,
// so some distances tie exactly too. Names in only, when given, restrict
// the set.
func kernelBackends(t testing.TB, n, dim int, rng *rand.Rand, only ...string) []kernelBackend {
	t.Helper()
	vecs := make([][]float64, n+3)
	for i := range vecs {
		vecs[i] = make([]float64, dim)
		for k := range vecs[i] {
			vecs[i][k] = rng.NormFloat64()
		}
	}
	copy(vecs[7], vecs[0])
	cos, err := metric.NewCosine(vecs[:n])
	if err != nil {
		t.Fatal(err)
	}
	wanted := func(name string) bool { return len(only) == 0 || slices.Contains(only, name) }
	out := []kernelBackend{{"func", metric.Func{N: n, F: cos.Distance}}}
	if wanted("dense") {
		out = append(out, kernelBackend{"dense", metric.Materialize(cos)})
	}
	if wanted("dense-f32") {
		out = append(out, kernelBackend{"dense-f32", metric.MaterializeF32(cos)})
	}
	// The permuted triangle holds n+3 points and loses three, leaving a
	// live logical→physical permutation over a different geometry.
	full, err := metric.NewCosine(vecs)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{metric.KindF64, metric.KindF32} {
		for _, permuted := range []bool{false, true} {
			name := "tri-" + kind
			if permuted {
				name += "-permuted"
			}
			if !wanted(name) {
				continue
			}
			src, size := cos, n
			if permuted {
				src, size = full, n+3
			}
			tri, err := metric.NewSnapshotter(kind)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < size; i++ {
				row := make([]float64, i)
				for j := range row {
					row[j] = src.Distance(i, j)
				}
				if _, err := tri.AppendRow(row); err != nil {
					t.Fatal(err)
				}
			}
			if permuted {
				for _, u := range []int{2, 11, 5} {
					if err := tri.RemoveSwap(u); err != nil {
						t.Fatal(err)
					}
				}
			}
			out = append(out, kernelBackend{name, tri.Snapshot()})
		}
	}
	vs, err := metric.NewVecStoreFromVectors(metric.KindVecF32, vecs[:n])
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, kernelBackend{"vec-f32", vs.Snapshot()})
	if len(only) == 0 {
		return out
	}
	kept := out[:0]
	for _, be := range out {
		for _, name := range only {
			if be.name == name {
				kept = append(kept, be)
			}
		}
	}
	return kept
}

// tiedWeights draws every weight from five values, so exact score ties
// are common: quarters, which sum exactly, and random reals, which round.
func tiedWeights(n int, rng *rand.Rand) []float64 {
	values := []float64{0, 0.25, 0.5, rng.Float64(), rng.Float64()}
	w := make([]float64, n)
	for i := range w {
		w[i] = values[rng.Intn(len(values))]
	}
	return w
}

// modularOn builds a modular objective over d.
func modularOn(t testing.TB, w []float64, lambda float64, d metric.Metric) *Objective {
	t.Helper()
	mod, err := setfunc.NewModular(w)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewObjective(mod, lambda, d)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// kernelPools are the worker counts of the identity sweeps: 1 (the nil
// pool) to 4.
var kernelPools = []*engine.Pool{nil, engine.New(2), engine.New(3), engine.New(4)}

// sameTrace fails unless two traces are bit-identical.
func sameTrace(t *testing.T, label string, got, want *GreedyTrace) {
	t.Helper()
	if !reflect.DeepEqual(got.Order, want.Order) || !reflect.DeepEqual(got.Value, want.Value) ||
		!reflect.DeepEqual(got.FValue, want.FValue) || !reflect.DeepEqual(got.Dispersion, want.Dispersion) {
		t.Fatalf("%s: trace diverges:\n got  %+v\n want %+v", label, got, want)
	}
}

// TestKernelGreedyMatchesReference pins the (w, d_u) argmax kernel and the
// potential-pair opening through the public greedy solvers: GreedyB, the
// Table 3 improved greedy, GreedyOblivious and Greedy A's best last pick
// return exactly the reference solutions and traces on every backend and
// worker count.
func TestKernelGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	const n = 100
	for _, be := range kernelBackends(t, n, 6, rng) {
		w := tiedWeights(n, rng)
		for _, lambda := range []float64{0, 0.25, 2} {
			obj := modularOn(t, w, lambda, be.d)
			for _, p := range []int{1, 2, 7} {
				for pi, pool := range kernelPools {
					label := fmt.Sprintf("%s λ=%g p=%d pool#%d", be.name, lambda, p, pi)
					for _, algo := range []Algo{AlgoGreedy, AlgoGreedyImproved, AlgoOblivious} {
						tr, err := soloTrace(obj, Spec{Algo: algo, K: p, Pool: pool})
						if err != nil {
							t.Fatal(err)
						}
						sol, err := Solve(obj, Spec{Algo: algo, K: p, Pool: pool})
						if err != nil {
							t.Fatal(err)
						}
						ref, refTr := refGreedy(obj, p, pool, algo == AlgoOblivious, algo == AlgoGreedyImproved)
						sameTrace(t, fmt.Sprintf("%s algo %d", label, algo), tr, refTr)
						sameSolution(t, fmt.Sprintf("%s algo %d", label, algo), ref, sol)
					}
					if p%2 == 1 && p > 1 {
						got, err := GreedyA(obj, p, WithPool(pool), WithBestLastVertex())
						if err != nil {
							t.Fatal(err)
						}
						st := obj.NewState()
						for _, e := range heaviestDisjointEdges(nil, n, p/2, func(u, v int) float64 {
							return w[u] + w[v] + 2*lambda*be.d.Distance(u, v)
						}, pool) {
							st.Add(e[0])
							st.Add(e[1])
						}
						st.Add(refArgmax(st, pool, true).Index)
						sameSolution(t, label+" GreedyA", solutionFromState(st, 0), got)
					}
				}
			}
		}
	}
}

// TestKernelGreedyShardedMatchesReference runs the argmax kernel above its
// fan-out minimum, where the scan really splits across 2–4 workers, on the
// backends that stay small at n = 33 000 (vector snapshot, Func view).
func TestKernelGreedyShardedMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	rng := rand.New(rand.NewSource(142))
	const n = 33000 // ≥ 4·kernelMinShard
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	vs, err := metric.NewVecStoreFromVectors(metric.KindVecF32, vecs)
	if err != nil {
		t.Fatal(err)
	}
	cos, err := metric.NewCosine(vecs)
	if err != nil {
		t.Fatal(err)
	}
	w := tiedWeights(n, rng)
	for _, d := range []metric.Metric{vs.Snapshot(), metric.Func{N: n, F: cos.Distance}} {
		obj := modularOn(t, w, 0.5, d)
		for _, oblivious := range []bool{false, true} {
			ref, refTr := refGreedy(obj, 5, nil, oblivious, false)
			for pi, pool := range kernelPools {
				algo := AlgoGreedy
				if oblivious {
					algo = AlgoOblivious
				}
				tr, err := soloTrace(obj, Spec{Algo: algo, K: 5, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%T oblivious=%v pool#%d", d, oblivious, pi)
				sameTrace(t, label, tr, refTr)
				sameSolution(t, label, ref, tr.Solution(5))
			}
		}
	}
}

// TestKernelMultiTraceMatchesReference pins SolveMultiTrace — the nL > 1
// case of the same argmax kernel — to solo reference traces per target,
// and its one-target solves: the Table 3 opening under a λ other than the
// objective's, and submodular quality on the evaluator scan.
func TestKernelMultiTraceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	const n = 120
	targets := []LambdaTarget{{0, 3}, {0.1, 6}, {0.5, 6}, {0.5, 2}, {2, 5}}
	for _, be := range kernelBackends(t, n, 5, rng) {
		w := tiedWeights(n, rng)
		obj := modularOn(t, w, 1, be.d)
		for _, algo := range []Algo{AlgoGreedy, AlgoOblivious} {
			for pi, pool := range kernelPools {
				trs, err := SolveMultiTrace(obj, Spec{Algo: algo, Pool: pool}, targets)
				if err != nil {
					t.Fatal(err)
				}
				for j, tg := range targets {
					_, ref := refGreedy(modularOn(t, w, tg.Lambda, be.d), tg.K, nil, algo == AlgoOblivious, false)
					sameTrace(t, fmt.Sprintf("%s algo %d pool#%d target %+v", be.name, algo, pi, tg), trs[j], ref)
				}
			}
		}
		for _, tg := range targets {
			_, ref := refGreedy(modularOn(t, w, tg.Lambda, be.d), tg.K, nil, false, true)
			for pi, pool := range kernelPools {
				trs, err := SolveMultiTrace(obj, Spec{Algo: AlgoGreedyImproved, Pool: pool}, []LambdaTarget{tg})
				if err != nil {
					t.Fatal(err)
				}
				sameTrace(t, fmt.Sprintf("%s improved pool#%d target %+v", be.name, pi, tg), trs[0], ref)
			}
		}
	}
	for trial := 0; trial < 4; trial++ {
		sub := randSubmodularInstance(t, 40, 6, 1, rng)
		for _, tg := range []LambdaTarget{{0, 4}, {0.3, 7}, {1, 5}, {2.5, 9}} {
			refObj, err := NewObjective(sub.F(), tg.Lambda, sub.Metric())
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range []Algo{AlgoGreedy, AlgoOblivious, AlgoGreedyImproved} {
				_, ref := refGreedy(refObj, tg.K, nil, algo == AlgoOblivious, algo == AlgoGreedyImproved)
				for pi, pool := range kernelPools {
					trs, err := SolveMultiTrace(sub, Spec{Algo: algo, Pool: pool}, []LambdaTarget{tg})
					if err != nil {
						t.Fatal(err)
					}
					sameTrace(t, fmt.Sprintf("submodular #%d algo %d pool#%d target %+v", trial, algo, pi, tg), trs[0], ref)
				}
			}
		}
	}
}

// kernelMatroids are the constraints of the pair and swap sweeps over n
// elements, all of rank about r: uniform, a partition of 4 parts capped at
// r/4, and a transversal matroid over r overlapping strided sets.
func kernelMatroids(t *testing.T, n, r int) map[string]matroid.Matroid {
	t.Helper()
	uni, err := matroid.NewUniform(n, r)
	if err != nil {
		t.Fatal(err)
	}
	partOf, caps := make([]int, n), []int{r / 4, r / 4, r / 4, r / 4}
	for i := range partOf {
		partOf[i] = (i * 7 / 3) % 4
	}
	part, err := matroid.NewPartition(partOf, caps)
	if err != nil {
		t.Fatal(err)
	}
	var sets [][]int
	for s := 0; s < r; s++ {
		var set []int
		for u := s; u < n; u += 3 + s {
			set = append(set, u)
		}
		sets = append(sets, set)
	}
	tr, err := matroid.NewTransversal(n, sets)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]matroid.Matroid{"uniform": uni, "partition": part, "transversal": tr}
}

// TestPairScanMatchesReference pins both opening scans to their references
// above the pair fan-out minimum (n = 200 holds 19 900 pairs, so pools of
// 2–4 split by pair count), on every backend.
func TestPairScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	const n = 200
	ms := kernelMatroids(t, n, 8)
	for _, be := range kernelBackends(t, n, 6, rng) {
		w := tiedWeights(n, rng)
		for _, lambda := range []float64{0, 2} {
			obj := modularOn(t, w, lambda, be.d)
			rx, ry := refBestPotentialPair(obj, nil)
			for pi, pool := range kernelPools {
				label := fmt.Sprintf("%s λ=%g pool#%d", be.name, lambda, pi)
				if x, y := bestPotentialPair(nil, obj, pool); x != rx || y != ry {
					t.Fatalf("%s: potential pair (%d,%d), reference (%d,%d)", label, x, y, rx, ry)
				}
				for name, m := range ms {
					ix, iy, ok := refBestIndependentPair(obj, m, nil)
					x, y, err := bestIndependentPair(nil, obj, m, pool)
					if !ok || err != nil || x != ix || y != iy {
						t.Fatalf("%s %s: independent pair (%d,%d) err %v, reference (%d,%d)", label, name, x, y, err, ix, iy)
					}
				}
			}
		}
	}
}

// TestSwapScanMatchesReference pins the swap kernel through LocalSearch:
// from a greedy start under the uniform matroid and from the Section 5
// best-pair basis under partition and transversal matroids, every backend
// and worker count applies the reference's swaps and ends at its solution.
// n = 1000 with 24 members clears the swap kernel's fan-out minimum.
func TestSwapScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	for _, size := range []struct{ n, r int }{{90, 8}, {1000, 24}} {
		n := size.n
		ms := kernelMatroids(t, n, size.r)
		var only []string
		if n > 100 {
			only = []string{"dense-f32", "tri-f64-permuted", "vec-f32"} // one per row representation
		}
		for _, be := range kernelBackends(t, n, 4, rng, only...) {
			w := tiedWeights(n, rng)
			lambdas := []float64{0.25, 1}
			if n > 100 {
				lambdas = lambdas[1:]
			}
			for _, lambda := range lambdas {
				obj := modularOn(t, w, lambda, be.d)
				for name, m := range ms {
					if n > 100 && name == "transversal" {
						continue // its oracle dominates the run; n = 90 covers it
					}
					var init []int
					if name == "uniform" {
						g, _ := refGreedy(obj, m.Rank(), nil, false, false)
						// Start away from the greedy answer so swaps happen.
						init = append(g.Members[1:], firstOutside(g.Members, n))
					}
					ref := refLocalSearch(t, obj, m, init, nil)
					for pi, pool := range kernelPools {
						got, err := LocalSearch(obj, m, &LSOptions{Init: init, Pool: pool})
						if err != nil {
							t.Fatal(err)
						}
						sameSolution(t, fmt.Sprintf("n=%d %s λ=%g %s pool#%d", n, be.name, lambda, name, pi), ref, got)
					}
				}
			}
		}
	}
}

// firstOutside returns the lowest index not in S.
func firstOutside(S []int, n int) int {
	in := make(map[int]bool, len(S))
	for _, u := range S {
		in[u] = true
	}
	for u := 0; u < n; u++ {
		if !in[u] {
			return u
		}
	}
	return -1
}

// TestSwapScanSessionMatchesReference replays a dynamic session's
// maintenance — weight perturbations, a state refresh, then Section 6
// oblivious updates through State.BestSwap — against the reference swap
// scan, step for step, on the session's Dense backend and every pool.
func TestSwapScanSessionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	const n, p = 300, 8
	for _, be := range kernelBackends(t, n, 5, rng, "dense", "func") {
		w := tiedWeights(n, rng)
		mod, err := setfunc.NewModular(w)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := NewObjective(mod, 0.5, be.d)
		if err != nil {
			t.Fatal(err)
		}
		sts := make([]*State, len(kernelPools))
		ref := obj.NewState()
		ref.SetTo([]int{0, 1, 2, 3, 4, 5, 6, 7}[:p])
		for i := range sts {
			sts[i] = obj.NewState()
			sts[i].SetTo(ref.Members())
		}
		for step := 0; step < 60; step++ {
			mod.SetWeight(rng.Intn(n), float64(rng.Intn(9))/4)
			ref.SetTo(ref.Members())
			want := refBestSwap(ref, nil, ref.members, 1e-15, nil)
			for i, st := range sts {
				st.SetTo(st.Members())
				out, in, gain, ok := st.BestSwap(kernelPools[i], 1e-15, nil)
				if ok != (want.Index != -1) || (ok && (in != want.Index || out != want.Aux || gain != want.Value)) {
					t.Fatalf("%s step %d pool#%d: swap (%d→%d, %v, ok %v), reference (%d→%d, %v)",
						be.name, step, i, out, in, gain, ok, want.Aux, want.Index, want.Value)
				}
				if ok {
					st.Swap(out, in)
				}
			}
			if want.Index != -1 {
				ref.Swap(want.Aux, want.Index)
			}
			for i, st := range sts {
				if st.Value() != ref.Value() || !reflect.DeepEqual(sorted(st.Members()), sorted(ref.Members())) {
					t.Fatalf("%s step %d pool#%d: state diverged from the reference", be.name, step, i)
				}
			}
		}
	}
}

func sorted(s []int) []int {
	sort.Ints(s)
	return s
}

// TestPairScanCancelledMidScan cancels a context from inside the distance
// oracle a few rows into each opening scan: the solvers must return
// ctx.Err(), and the scan must stop well before visiting every pair.
func TestPairScanCancelledMidScan(t *testing.T) {
	rng := rand.New(rand.NewSource(147))
	const n = 400
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	raw, err := metric.NewPoints(pts, metric.L2)
	if err != nil {
		t.Fatal(err)
	}
	part, err := matroid.NewPartition(make([]int, n), []int{3})
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]func(obj *Objective, ctx context.Context, pool *engine.Pool) error{
		"improved-greedy": func(obj *Objective, ctx context.Context, pool *engine.Pool) error {
			_, err := GreedyB(obj, 4, WithBestPairStart(), WithPool(pool), WithContext(ctx))
			return err
		},
		"local-search": func(obj *Objective, ctx context.Context, pool *engine.Pool) error {
			_, err := LocalSearch(obj, part, &LSOptions{Pool: pool, Ctx: ctx})
			return err
		},
	}
	for name, solve := range run {
		for pi, pool := range kernelPools {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			d := metric.Func{N: n, F: func(i, j int) float64 {
				if calls.Add(1) == 3*n {
					cancel()
				}
				return raw.Distance(i, j)
			}}
			obj := modularOn(t, tiedWeights(n, rng), 0.5, d)
			err := solve(obj, ctx, pool)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s pool#%d: err = %v, want context.Canceled", name, pi, err)
			}
			if c := calls.Load(); c >= n*(n-1)/4 {
				t.Fatalf("%s pool#%d: scan ran on for %d distance reads after the cancel", name, pi, c)
			}
		}
	}
}

// TestKernelScoreHelpersMatchFrozenExpressions pins the shared score
// helpers to the expressions the closure scorers evaluated, bitwise, over
// random non-dyadic inputs. A reassociated helper changes scores by an ulp,
// which the solver sweeps only notice on near-ties.
func TestKernelScoreHelpersMatchFrozenExpressions(t *testing.T) {
	rng := rand.New(rand.NewSource(148))
	for i := 0; i < 100000; i++ {
		fx, fy, lambda, d := rng.Float64(), rng.Float64()*3, rng.Float64()*2, 1+rng.Float64()
		duIn, duOut := rng.Float64()*9, rng.Float64()*9
		if got, want := pairPotScore(fx, fy, lambda, d), 0.5*(fx+fy)+lambda*d; got != want {
			t.Fatalf("pairPotScore(%v, %v, %v, %v) = %v, want %v", fx, fy, lambda, d, got, want)
		}
		if got, want := pairObjScore(fx, fy, lambda, d), fx+fy+lambda*d; got != want {
			t.Fatalf("pairObjScore(%v, %v, %v, %v) = %v, want %v", fx, fy, lambda, d, got, want)
		}
		dGain := duIn - d - duOut
		if got, want := swapScore(fx-fy, lambda, duIn, d, duOut), (fx-fy)+lambda*dGain; got != want {
			t.Fatalf("swapScore = %v, want %v", got, want)
		}
	}
}
