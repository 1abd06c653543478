package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/metric"
)

// pairLambdas are the trade-offs of the frontier sweeps: pure quality, two
// mixes, and one where distance swamps quality so scores tie by rounding.
var pairLambdas = []float64{0, 0.25, 2, 1e6}

// TestPairFrontierMatchesScan pins both openings to the frozen full scans
// (refBestPotentialPair, refBestIndependentPair): uncached passes, and a
// cache built at the first λ and then evaluated at every other λ and both
// scores. It covers every backend, tied weights, all-equal distances, a
// coverage quality, every pool and every matroid. n = 260 holds 33 670
// pairs, enough for a 4-worker pool to split into 4 shards.
func TestPairFrontierMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	const n, rank = 260, 8
	ms := kernelMatroids(t, n, rank)
	uni, err := matroid.NewUniform(n, rank)
	if err != nil {
		t.Fatal(err)
	}
	type instance struct {
		name string
		obj  func(lambda float64) *Objective
	}
	var cases []instance
	backends := append(kernelBackends(t, n, 6, rng),
		kernelBackend{"all-equal", metric.Func{N: n, F: func(i, j int) float64 { return 1 }}})
	for _, be := range backends {
		w := tiedWeights(n, rng)
		cases = append(cases, instance{be.name, func(lambda float64) *Objective { return modularOn(t, w, lambda, be.d) }})
	}
	cov := randSubmodularInstance(t, n, 12, 1, rng)
	cases = append(cases, instance{"coverage", func(lambda float64) *Objective {
		obj, err := NewObjective(cov.F(), lambda, cov.Metric())
		if err != nil {
			t.Fatal(err)
		}
		return obj
	}})
	for _, c := range cases {
		type refPair struct{ x, y int }
		pot := map[float64]refPair{}
		indep := map[string]refPair{}
		for _, lambda := range pairLambdas {
			obj := c.obj(lambda)
			x, y := refBestPotentialPair(obj, nil)
			pot[lambda] = refPair{x, y}
			for name, m := range ms {
				x, y, ok := refBestIndependentPair(obj, m, nil)
				if !ok {
					t.Fatalf("%s %s: reference found no independent pair", c.name, name)
				}
				indep[fmt.Sprint(name, lambda)] = refPair{x, y}
			}
		}
		for pi, pool := range kernelPools {
			all := new(PairCache)
			per := map[string]*PairCache{}
			for name := range ms {
				per[name] = new(PairCache)
			}
			for _, lambda := range pairLambdas {
				label := fmt.Sprintf("%s λ=%g pool#%d", c.name, lambda, pi)
				obj := c.obj(lambda)
				cached := obj.WithPairCache(all)
				want := pot[lambda]
				for _, o := range []*Objective{obj, cached} {
					if x, y := bestPotentialPair(nil, o, pool); x != want.x || y != want.y {
						t.Fatalf("%s cached=%v: potential pair (%d,%d), scan (%d,%d)", label, o.pairs != nil, x, y, want.x, want.y)
					}
				}
				// Every pair is independent under the uniform matroid, so
				// its seed reads the objective's cache: the objective score
				// from the frontier the potential built.
				want = indep[fmt.Sprint("uniform", lambda)]
				if x, y, err := bestIndependentPair(nil, cached, uni, pool); err != nil || x != want.x || y != want.y {
					t.Fatalf("%s: cached uniform seed (%d,%d) err %v, scan (%d,%d)", label, x, y, err, want.x, want.y)
				}
				for name, m := range ms {
					want := indep[fmt.Sprint(name, lambda)]
					for _, mm := range []matroid.Matroid{m, CachePairs(m, per[name])} {
						x, y, err := bestIndependentPair(nil, obj, mm, pool)
						if err != nil || x != want.x || y != want.y {
							t.Fatalf("%s %s: seed (%d,%d) err %v, scan (%d,%d)", label, name, x, y, err, want.x, want.y)
						}
					}
				}
			}
			per["all pairs"] = all
			for name, pc := range per {
				if builds, size := pc.Stats(); builds != 1 || size < 0 {
					t.Fatalf("%s pool#%d %s: %d builds, frontier %d; want one kept build", c.name, pi, name, builds, size)
				}
			}
		}
	}
}

// risingPairs is the adversarial instance: weights fall with the index and
// distances rise along pair order, so no pair is dominated by an earlier
// one and every pair enters the frontier.
func risingPairs(n int) ([]float64, metric.Func) {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(n-i) / float64(n)
	}
	P := float64(n * (n - 1) / 2)
	return w, metric.Func{N: n, F: func(i, j int) float64 {
		x, y := min(i, j), max(i, j)
		return 1 + float64(x*(2*n-x-1)/2+y-x-1)/P
	}}
}

// TestPairFrontierPastCapAnswersAndIsNotKept drives a frontier past its
// retention cap (all 44 850 pairs of n = 300 against a cap of 1200): every
// opening must still match the full scan, on both row paths and every
// pool, and the cache must hold nothing: after its one pass each later
// solve runs its own.
func TestPairFrontierPastCapAnswersAndIsNotKept(t *testing.T) {
	const n = 300
	w, rising := risingPairs(n)
	part, err := matroid.NewPartition(func() []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i % 5
		}
		return p
	}(), []int{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []kernelBackend{{"func", rising}, {"dense", metric.Materialize(rising)}} {
		for pi, pool := range kernelPools {
			all, per := new(PairCache), new(PairCache)
			for _, lambda := range pairLambdas {
				label := fmt.Sprintf("%s λ=%g pool#%d", be.name, lambda, pi)
				obj := modularOn(t, w, lambda, be.d)
				rx, ry := refBestPotentialPair(obj, nil)
				if x, y := bestPotentialPair(nil, obj.WithPairCache(all), pool); x != rx || y != ry {
					t.Fatalf("%s: potential pair (%d,%d), scan (%d,%d)", label, x, y, rx, ry)
				}
				ix, iy, _ := refBestIndependentPair(obj, part, nil)
				if x, y, err := bestIndependentPair(nil, obj, CachePairs(part, per), pool); err != nil || x != ix || y != iy {
					t.Fatalf("%s: seed (%d,%d) err %v, scan (%d,%d)", label, x, y, err, ix, iy)
				}
			}
			for name, pc := range map[string]*PairCache{"all pairs": all, "partition": per} {
				if builds, size := pc.Stats(); builds != 1 || size != -1 {
					t.Fatalf("%s pool#%d %s: %d builds, frontier %d; want one pass through the cache and none kept", be.name, pi, name, builds, size)
				}
			}
		}
	}
}

// TestPairFrontierCancelledBuildKeepsNothing cancels the first solve's
// pass a few rows in: the solve returns ctx's error and the cache stays
// empty. The next solve builds the frontier, answers as the scan does,
// and keeps it.
func TestPairFrontierCancelledBuildKeepsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	const n = 300
	cos := kernelBackends(t, n, 5, rng, "func")[0].d
	w := tiedWeights(n, rng)
	for pi, pool := range kernelPools {
		pc := new(PairCache)
		ctx, cancel := context.WithCancel(context.Background())
		var reads atomic.Int64
		d := metric.Func{N: n, F: func(i, j int) float64 {
			if reads.Add(1) == 3*n {
				cancel()
			}
			return cos.Distance(i, j)
		}}
		obj := modularOn(t, w, 0.5, d).WithPairCache(pc)
		_, err := GreedyB(obj, 4, WithBestPairStart(), WithPool(pool), WithContext(ctx))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pool#%d: err = %v, want context.Canceled", pi, err)
		}
		if builds, size := pc.Stats(); builds != 0 || size != -1 {
			t.Fatalf("pool#%d: cancelled pass left %d builds, frontier %d", pi, builds, size)
		}
		ref, _ := refGreedy(modularOn(t, w, 0.5, d), 4, nil, false, true)
		got, err := GreedyB(obj, 4, WithBestPairStart(), WithPool(pool))
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, fmt.Sprintf("pool#%d after cancel", pi), ref, got)
		if builds, size := pc.Stats(); builds != 1 || size < 0 {
			t.Fatalf("pool#%d: %d builds, frontier %d after the retry; want one kept build", pi, builds, size)
		}
	}
}

// TestPairFrontierWaiterHonorsItsContext holds a build in flight and
// starts a second solve whose context is already cancelled: it stops
// waiting with ctx's error, and the build it waited on still completes.
func TestPairFrontierWaiterHonorsItsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	const n = 120
	cos := kernelBackends(t, n, 5, rng, "func")[0].d
	release, entered := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	d := metric.Func{N: n, F: func(i, j int) float64 {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return cos.Distance(i, j)
	}}
	w := tiedWeights(n, rng)
	pc := new(PairCache)
	obj := modularOn(t, w, 0.5, d).WithPairCache(pc)
	done := make(chan error)
	go func() {
		_, err := GreedyB(obj, 3, WithBestPairStart())
		done <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GreedyB(obj, 3, WithBestPairStart(), WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if builds, size := pc.Stats(); builds != 1 || size < 0 {
		t.Fatalf("%d builds, frontier %d; want one kept build", builds, size)
	}
}

// TestPairFrontierStaircaseMatchesBruteForce streams random keys, many of
// them tied, through the staircase: a key must be kept exactly when no
// earlier key matches or beats it in both coordinates, and the steps must
// stay strictly falling in s and rising in d.
func TestPairFrontierStaircaseMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	for trial := 0; trial < 50; trial++ {
		keys := make([]stairStep, 400)
		for i := range keys {
			keys[i] = stairStep{s: float64(rng.Intn(20)), d: float64(rng.Intn(30))}
		}
		var st staircase
		for i, k := range keys {
			dominated := false
			for _, e := range keys[:i] {
				if e.s >= k.s && e.d >= k.d {
					dominated = true
					break
				}
			}
			kept := k.d > st.at(k.s)
			if kept {
				st.insert(k.s, k.d)
			}
			if kept == dominated {
				t.Fatalf("trial %d key %d (s=%g, d=%g): kept %v, dominated by an earlier key %v", trial, i, k.s, k.d, kept, dominated)
			}
			for j := 1; j < len(st); j++ {
				if st[j].s >= st[j-1].s || st[j].d <= st[j-1].d {
					t.Fatalf("trial %d: staircase out of order at step %d: %v", trial, j, st)
				}
			}
		}
	}
}
