// Package engine provides the parallel execution substrate shared by every
// solver in this module: a bounded worker pool that shards index scans
// across goroutines with deterministic, serial-identical results.
//
// The paper's algorithms all spend their time in argmax-over-candidates
// loops — the greedy marginal-potential scan of Section 4 (φ′_u(S) for all
// u ∉ S), the swap-neighborhood scan of the Section 5 local search
// (SwapGain(out, in) over all out ∈ S, in ∉ S), and the Section 6 oblivious
// update rule, which is the same swap scan. Each candidate's score depends
// only on the frozen pre-scan state, so the scan parallelizes embarrassingly;
// this package supplies the one fan-out/fan-in primitive they all share.
//
// # Determinism
//
// ArgMax and ArgMaxPair select the maximal score under a total order —
// higher value first, ties broken toward the lower candidate index — which
// is associative and commutative, so the result is independent of how the
// index range is sharded. A Pool with 1 worker runs the identical fold
// inline. Consequently parallel and serial runs of every solver built on
// this package return byte-identical solutions; see the determinism tests in
// internal/core.
//
// # Shard layouts
//
// ArgMax, ArgMaxPair and For split [0, n) into equal contiguous ranges of
// at least minShard indices. ArgMaxTriCtx scans the rows of a triangular
// pair scan, where row x holds n−1−x pairs, and splits the rows by equal
// pair count instead, so no worker carries the heavy first rows alone.
// ForMin takes the fan-out minimum from the caller: scans whose per-index
// work is a few nanoseconds pass a minimum large enough that the goroutine
// fan-out never costs more than the work it splits. Every layout is a pure
// function of n and the worker count.
//
// # Safety contract
//
// The factory passed to ArgMax/ArgMaxPair/For is invoked on the caller's
// goroutine, once per worker, before any scoring starts — so it may lazily
// build per-worker scratch (e.g. a private quality evaluator) without
// synchronization. The returned scorer is then called only from that
// worker's goroutine over a contiguous index shard. Scorers for different
// workers run concurrently and must not share mutable state.
package engine
