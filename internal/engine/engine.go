package engine

import (
	"context"
	"runtime"
	"sort"
	"sync"
)

// minShard is the smallest index range worth handing to its own goroutine.
// Scans below roughly this size run inline: the fork/join overhead would
// dwarf the work, and small scans (e.g. a stream window of 10) are the
// common case on hot paths.
const minShard = 192

// cancelStride is how many candidates a shard folds between cancellation
// checks. A non-blocking channel poll every stride keeps the per-candidate
// cost of cancellation support at a fraction of a nanosecond while bounding
// how far past a cancel a scan can run: one stride of scorer calls per
// worker.
const cancelStride = 1024

// strideFor returns the poll interval for a scan span: cancelStride for
// large ranges, and a fraction of the range for small ones so that scans
// shorter than a stride — small corpora, or large corpora split across
// many workers — still poll a few times mid-range. Candidate scorers can
// be arbitrarily expensive (a user Quality function), so "small range"
// does not imply "fast scan".
func strideFor(span int) int {
	if span < cancelStride {
		return span/4 + 1
	}
	return cancelStride
}

// Pool is a bounded set of scan workers. The zero value and the nil pool
// both behave as a serial (1-worker) pool, so callers can thread an optional
// *Pool through without nil checks.
//
// A Pool is stateless and may be shared freely across goroutines and reused
// across scans; "bounded" means a scan fans out to at most Workers()
// goroutines at a time.
type Pool struct {
	workers int
}

// New returns a pool running at most `workers` concurrent scan goroutines.
// workers ≤ 0 selects runtime.GOMAXPROCS(0), the hardware default.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Default returns the hardware-default pool (GOMAXPROCS workers).
func Default() *Pool { return New(0) }

// Workers returns the concurrency bound; a nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// Serial reports whether scans on this pool run inline on the caller's
// goroutine.
func (p *Pool) Serial() bool { return p.Workers() == 1 }

// Best is the outcome of an argmax scan: the winning candidate index (-1
// when no candidate was eligible), its score, and the auxiliary value its
// scorer reported (0 for plain ArgMax).
type Best struct {
	Index int
	Aux   int
	Value float64
}

// Scorer rates one candidate: its score and whether it is eligible at all.
type Scorer func(u int) (score float64, ok bool)

// PairScorer rates one candidate and reports an auxiliary index alongside —
// e.g. for a swap scan, the best member to evict for this incoming
// candidate.
type PairScorer func(u int) (score float64, aux int, ok bool)

// ArgMax scans candidates u ∈ [0, n) and returns the eligible candidate
// with the highest score; ties break toward the lowest index. factory is
// called once per worker on the caller's goroutine (see the package safety
// contract).
//
// Serial scans (one shard) run inline without wrapping the scorer, so a
// caller that reuses its factory and scorer closures across rounds pays
// zero allocations per scan.
func (p *Pool) ArgMax(n int, factory func(worker int) Scorer) Best {
	return p.ArgMaxCtx(nil, n, factory)
}

// ArgMaxCtx is ArgMax with cooperative cancellation: every shard polls
// ctx.Done() once per cancelStride candidates and abandons its range when
// the context is cancelled. A cancelled scan returns an arbitrary partial
// Best — the caller is expected to check ctx.Err() and discard it. A nil
// ctx (or one that never cancels) adds one non-blocking channel poll per
// stride and nothing per candidate.
func (p *Pool) ArgMaxCtx(ctx context.Context, n int, factory func(worker int) Scorer) Best {
	if n <= 0 {
		return Best{Index: -1}
	}
	if p.shards(n) == 1 {
		score := factory(0)
		best := Best{Index: -1}
		done := doneOf(ctx)
		stride := strideFor(n)
		for u := 0; u < n; u++ {
			if done != nil && u%stride == stride-1 && cancelled(done) {
				return best
			}
			v, ok := score(u)
			if !ok {
				continue
			}
			if best.Index == -1 || v > best.Value {
				best = Best{Index: u, Value: v}
			}
		}
		return best
	}
	return p.ArgMaxPairCtx(ctx, n, func(worker int) PairScorer {
		score := factory(worker)
		return func(u int) (float64, int, bool) {
			v, ok := score(u)
			return v, 0, ok
		}
	})
}

// doneOf extracts the cancellation channel from an optional context. A nil
// channel (nil ctx, or contexts that can never cancel, like Background) is
// never ready, so scans stay on the cheap path.
func doneOf(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// cancelled polls a done channel without blocking.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// bestScratch pools the per-scan shard-result slices so steady-state
// parallel scans reuse one allocation instead of making a fresh []Best per
// round. Slices are pooled via pointer to keep Put itself allocation-free.
var bestScratch = sync.Pool{New: func() any {
	s := make([]Best, 0, 64)
	return &s
}}

// ArgMaxPair is ArgMax for scorers that carry an auxiliary index. The
// selection order is total — (higher score, then lower candidate index) —
// so the result is identical for every worker count and shard layout.
func (p *Pool) ArgMaxPair(n int, factory func(worker int) PairScorer) Best {
	return p.ArgMaxPairCtx(nil, n, factory)
}

// ArgMaxPairCtx is ArgMaxPair with the cooperative cancellation of
// ArgMaxCtx.
func (p *Pool) ArgMaxPairCtx(ctx context.Context, n int, factory func(worker int) PairScorer) Best {
	if n <= 0 {
		return Best{Index: -1}
	}
	shards := p.shards(n)
	chunk := (n + shards - 1) / shards
	return argMaxShards(doneOf(ctx), 0, shards, func(w int) (int, int) {
		return w * chunk, min((w+1)*chunk, n)
	}, factory)
}

// ArgMaxTriCtx is ArgMaxPairCtx over the rows of a triangular pair scan:
// row x ∈ [0, n−1) stands for the n−1−x pairs (x, y > x), and its scorer
// reports the row's best (score, partner). Row x holds n−1−x pairs, so
// equal row counts would hand the first shard about three times the
// second's work; instead shard boundaries split the n(n−1)/2 pairs into
// equal counts (see pairRowBounds), with at least minPairs pairs per shard.
// The merge is ArgMaxPair's total order: higher score, then lower row.
// A row is O(n) work, so shards poll ctx before every row.
func (p *Pool) ArgMaxTriCtx(ctx context.Context, n, minPairs int, factory func(worker int) PairScorer) Best {
	if n < 2 {
		return Best{Index: -1}
	}
	pairs := n * (n - 1) / 2
	shards := p.Workers()
	if minPairs > 0 && pairs/minPairs < shards {
		shards = max(1, pairs/minPairs)
	}
	return argMaxShards(doneOf(ctx), 1, shards, func(w int) (int, int) {
		return pairRowBounds(n, shards, w)
	}, factory)
}

// pairRowBounds returns the row range [lo, hi) of shard s out of shards in
// a triangular pair scan over n points (row x holds the n−1−x pairs with a
// larger partner). Shard s starts at the first row whose preceding pairs
// reach s·P/shards, P = n(n−1)/2, so every shard holds an equal pair count
// up to one row. The bounds are a pure function of (n, shards, s).
func pairRowBounds(n, shards, s int) (lo, hi int) {
	return pairRowStart(n, shards, s), pairRowStart(n, shards, s+1)
}

// pairRowStart is the first row of shard s: the least x with
// pairsBefore(x) = x(2n−1−x)/2 ≥ s·P/shards.
func pairRowStart(n, shards, s int) int {
	if s >= shards {
		return n - 1
	}
	target := s * (n * (n - 1) / 2) / shards
	return sort.Search(n-1, func(x int) bool { return x*(2*n-1-x)/2 >= target })
}

// ForMin is For with a caller-chosen fan-out minimum: [0, n) splits into
// at most Workers() contiguous shards of at least minPer indices each, and
// a range shorter than 2·minPer runs inline on the caller's goroutine.
// Scans whose per-index work is a few nanoseconds use it so the goroutine
// fan-out is paid only where it is smaller than the work it splits. A
// body closure reused across calls makes the inline path allocation-free.
func (p *Pool) ForMin(n, minPer int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	shards := p.Workers()
	if minPer > 0 && n/minPer < shards {
		shards = max(1, n/minPer)
	}
	if shards == 1 {
		body(0, 0, n)
		return
	}
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, w*chunk, min((w+1)*chunk, n))
	}
	wg.Wait()
}

// argMaxShards runs one scanShard per shard — inline for a single shard —
// and merges the shard winners in shard order. factory runs on the
// caller's goroutine, once per shard, before any scoring starts. stride is
// the cancellation poll interval (0 = strideFor the shard's span).
func argMaxShards(done <-chan struct{}, stride, shards int, bounds func(shard int) (lo, hi int), factory func(worker int) PairScorer) Best {
	if shards == 1 {
		lo, hi := bounds(0)
		return scanShard(factory(0), lo, hi, stride, done)
	}
	scratch := bestScratch.Get().(*[]Best)
	if cap(*scratch) < shards {
		*scratch = make([]Best, shards)
	}
	results := (*scratch)[:shards]
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo, hi := bounds(w)
		score := factory(w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			results[w] = scanShard(score, lo, hi, stride, done)
		}(w, lo, hi)
	}
	wg.Wait()
	best := Best{Index: -1}
	for _, r := range results {
		if r.Index == -1 {
			continue
		}
		// Strict > keeps the earlier shard (lower indices) on ties.
		if best.Index == -1 || r.Value > best.Value {
			best = r
		}
	}
	bestScratch.Put(scratch)
	return best
}

// scanShard folds one contiguous index range; strict > keeps the lowest
// index among equal scores. A ready done channel abandons the range at the
// next stride boundary (stride 0 = strideFor the range).
func scanShard(score PairScorer, lo, hi, stride int, done <-chan struct{}) Best {
	best := Best{Index: -1}
	if stride == 0 {
		stride = strideFor(hi - lo)
	}
	for u := lo; u < hi; u++ {
		if done != nil && (u-lo)%stride == stride-1 && cancelled(done) {
			return best
		}
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

// For splits [0, n) into contiguous shards and runs body(worker, lo, hi)
// for each, in parallel across the pool's workers. body must write only to
// worker- or index-disjoint state. Shard boundaries depend only on n and
// the worker count, so output layouts are deterministic.
func (p *Pool) For(n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	shards := p.shards(n)
	if shards == 1 {
		body(0, 0, n)
		return
	}
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// Do runs n independent coarse-grained tasks body(0) … body(n−1) with at
// most Workers() running concurrently. Unlike For, tasks are not coalesced
// by minShard: Do is for work items that are individually substantial — a
// per-shard flush in a serving layer, a per-repetition simulation — where
// even n = 2 deserves 2 goroutines. A serial pool runs the tasks inline in
// order.
func (p *Pool) Do(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w == 1 || n == 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	if w > n {
		w = n
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				body(i)
			}
		}()
	}
	wg.Wait()
}

// shards returns how many goroutines an n-candidate scan should use: the
// pool bound, capped so every shard holds at least minShard candidates.
func (p *Pool) shards(n int) int {
	w := p.Workers()
	if most := (n + minShard - 1) / minShard; w > most {
		w = most
	}
	if w < 1 {
		w = 1
	}
	return w
}
