package engine

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

// bruteArgMax is the reference fold: max score, ties to the lowest index.
func bruteArgMax(n int, score func(u int) (float64, int, bool)) Best {
	best := Best{Index: -1}
	for u := 0; u < n; u++ {
		v, aux, ok := score(u)
		if !ok {
			continue
		}
		if best.Index == -1 || v > best.Value {
			best = Best{Index: u, Aux: aux, Value: v}
		}
	}
	return best
}

func TestArgMaxMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		scores := make([]float64, n)
		eligible := make([]bool, n)
		for i := range scores {
			// Coarse values force frequent ties.
			scores[i] = float64(rng.Intn(8))
			eligible[i] = rng.Intn(4) != 0
		}
		score := func(u int) (float64, int, bool) {
			return scores[u], u * 2, eligible[u]
		}
		want := bruteArgMax(n, score)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			pool := New(workers)
			got := pool.ArgMaxPair(n, func(int) PairScorer { return score })
			if got != want {
				t.Fatalf("trial %d, workers=%d: got %+v, want %+v", trial, workers, got, want)
			}
		}
	}
}

func TestArgMaxTieBreaksToLowestIndex(t *testing.T) {
	n := 5000 // large enough to actually shard
	pool := New(8)
	got := pool.ArgMax(n, func(int) Scorer {
		return func(u int) (float64, bool) { return 1.0, true }
	})
	if got.Index != 0 || got.Value != 1.0 {
		t.Fatalf("all-equal scan picked %+v, want index 0", got)
	}
}

func TestArgMaxNoEligible(t *testing.T) {
	pool := New(4)
	got := pool.ArgMax(1000, func(int) Scorer {
		return func(u int) (float64, bool) { return 0, false }
	})
	if got.Index != -1 {
		t.Fatalf("got %+v, want Index -1", got)
	}
	if got := pool.ArgMax(0, nil); got.Index != -1 {
		t.Fatalf("empty scan: got %+v, want Index -1", got)
	}
}

func TestArgMaxNegativeScores(t *testing.T) {
	// A lone eligible candidate must win even with a very negative score.
	pool := New(4)
	got := pool.ArgMax(2000, func(int) Scorer {
		return func(u int) (float64, bool) {
			if u == 1234 {
				return -1e18, true
			}
			return 0, false
		}
	})
	if got.Index != 1234 {
		t.Fatalf("got %+v, want index 1234", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		pool := New(workers)
		n := 10_000
		marks := make([]int32, n)
		pool.For(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&marks[i], 1)
			}
		})
		for i, m := range marks {
			if m != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, m)
			}
		}
	}
	New(4).For(0, func(_, _, _ int) { t.Fatal("body called for n=0") })
}

func TestFactoryRunsOnCallerGoroutine(t *testing.T) {
	// The safety contract: factories may build unsynchronized scratch.
	// Verify one factory call per shard worker, with distinct ids.
	pool := New(4)
	var calls atomic.Int32
	seen := map[int]bool{}
	pool.ArgMax(4*minShard, func(worker int) Scorer {
		calls.Add(1)
		if seen[worker] { // safe: factory runs serially on this goroutine
			t.Errorf("worker id %d handed out twice", worker)
		}
		seen[worker] = true
		return func(u int) (float64, bool) { return 0, false }
	})
	if int(calls.Load()) != len(seen) || len(seen) == 0 {
		t.Fatalf("factory calls %d, distinct ids %d", calls.Load(), len(seen))
	}
}

func TestNilAndDefaultPools(t *testing.T) {
	var nilPool *Pool
	if w := nilPool.Workers(); w != 1 {
		t.Fatalf("nil pool workers = %d, want 1", w)
	}
	if !nilPool.Serial() {
		t.Fatal("nil pool should be serial")
	}
	got := nilPool.ArgMax(100, func(int) Scorer {
		return func(u int) (float64, bool) { return float64(u), true }
	})
	if got.Index != 99 {
		t.Fatalf("nil pool argmax picked %d, want 99", got.Index)
	}
	if Default().Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
	if New(-3).Workers() != Default().Workers() {
		t.Fatal("negative worker count should fall back to GOMAXPROCS")
	}
}

// TestPoolDo checks every task runs exactly once at every worker count,
// including nil and serial pools, and that concurrency stays bounded.
func TestPoolDo(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 2, 5, 33} {
			var pool *Pool
			if workers > 1 {
				pool = New(workers)
			}
			counts := make([]atomic.Int32, n+1)
			var running, peak atomic.Int32
			pool.Do(n, func(i int) {
				r := running.Add(1)
				for {
					p := peak.Load()
					if r <= p || peak.CompareAndSwap(p, r) {
						break
					}
				}
				counts[i].Add(1)
				running.Add(-1)
			})
			for i := 0; i < n; i++ {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
			if p := peak.Load(); int(p) > pool.Workers() {
				t.Fatalf("workers=%d n=%d: %d tasks ran concurrently", workers, n, p)
			}
		}
	}
}

// TestArgMaxCtxCancelsSmallScan pins the mid-scan cancellation contract at
// spans below cancelStride: the poll interval shrinks with the range
// (strideFor), so even a few-hundred-candidate scan with expensive scorers
// stops within a fraction of the range after cancel — not at the end.
func TestArgMaxCtxCancelsSmallScan(t *testing.T) {
	const n = 400
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited atomic.Int64
	New(1).ArgMaxCtx(ctx, n, func(int) Scorer {
		return func(u int) (float64, bool) {
			if visited.Add(1) == 10 {
				cancel()
			}
			return float64(u), true
		}
	})
	v := visited.Load()
	if v >= n {
		t.Fatalf("scan visited all %d candidates despite cancellation at 10", n)
	}
	if limit := int64(10 + strideFor(n) + 1); v > limit {
		t.Fatalf("scan visited %d candidates after cancel at 10, want ≤ %d (one small-scan stride)", v, limit)
	}
}

// TestPairRowBounds checks the triangular shard layout: shards tile the
// rows [0, n−1) in order, and each holds its equal share of the n(n−1)/2
// pairs up to one row's worth.
func TestPairRowBounds(t *testing.T) {
	for _, n := range []int{2, 3, 10, 257, 2000} {
		for shards := 1; shards <= 7; shards++ {
			total := n * (n - 1) / 2
			next := 0
			for s := 0; s < shards; s++ {
				lo, hi := pairRowBounds(n, shards, s)
				if lo != next || hi < lo {
					t.Fatalf("n=%d shards=%d: shard %d = [%d,%d), want start %d", n, shards, s, lo, hi, next)
				}
				next = hi
				pairs := 0
				for x := lo; x < hi; x++ {
					pairs += n - 1 - x
				}
				if share := total / shards; pairs > share+n || pairs < share-n {
					t.Fatalf("n=%d shards=%d: shard %d holds %d pairs, share %d", n, shards, s, pairs, share)
				}
			}
			if next != n-1 {
				t.Fatalf("n=%d shards=%d: shards end at row %d, want %d", n, shards, next, n-1)
			}
		}
	}
}

// TestArgMaxTriMatchesBruteForce checks the pair-balanced row scan against
// the serial fold, ties included, for every pool size.
func TestArgMaxTriMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(600)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(20))
		}
		score := func(x int) (float64, int, bool) { return scores[x], x + 1, x%5 != 3 }
		want := bruteArgMax(n-1, score)
		for _, workers := range []int{1, 2, 3, 8} {
			var rows atomic.Int64
			got := New(workers).ArgMaxTriCtx(nil, n, 1, func(int) PairScorer {
				return func(x int) (float64, int, bool) {
					rows.Add(1)
					return score(x)
				}
			})
			if got != want || rows.Load() != int64(n-1) {
				t.Fatalf("n=%d workers=%d: got %+v over %d rows, want %+v over %d", n, workers, got, rows.Load(), want, n-1)
			}
		}
	}
}

// TestForMinRespectsMinimum checks ForMin's fan-out: every index exactly
// once, and no shard below the minimum unless the range runs inline.
func TestForMinRespectsMinimum(t *testing.T) {
	for _, n := range []int{1, 99, 100, 199, 200, 1000} {
		for _, workers := range []int{1, 2, 4} {
			seen := make([]atomic.Int32, n)
			var shards atomic.Int32
			New(workers).ForMin(n, 100, func(_, lo, hi int) {
				shards.Add(1)
				if hi-lo < 100 && hi-lo != n {
					t.Errorf("n=%d workers=%d: shard [%d,%d) below the minimum", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			if want := min(workers, max(1, n/100)); int(shards.Load()) != want {
				t.Fatalf("n=%d workers=%d: %d shards, want %d", n, workers, shards.Load(), want)
			}
			for i := range seen {
				if seen[i].Load() != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, seen[i].Load())
				}
			}
		}
	}
}
