package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"maxsumdiv/internal/core"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/setfunc"
)

// corpus is the server's long-lived query index: the union of every shard's
// live items behind one growable distance backend, index-aligned weights,
// and one solver-scratch cache. It is split into two halves with different
// locking disciplines:
//
//   - The mutable build state (ids, items, weights, the growable backend) is
//     guarded by mu and touched only by mutation flushes: an upsert appends
//     (or rewrites) one O(n) distance row, a delete swap-removes one.
//     Writers only ever contend with other writers.
//   - The read side is the epoch store: publishIfDirty snapshots the build
//     state into an immutable epoch — structural sharing makes that
//     O(changed rows) for the distance triangle plus an O(n) copy of the
//     id/weight metadata — and atomically swaps it in. Queries pin the
//     current epoch with a refcount and solve entirely lock-free, so a slow
//     solve can never queue a writer, and a flush landing mid-solve can
//     never change what that solve observes.
//
// The backend representation is pluggable (Config.Backend): float64 rows
// for bit-exact distances, float32 rows for half the resident bytes, or the
// vector-native kinds (vec-f32, vec-int8) that keep only the raw vectors
// resident and compute cosine distances on demand — either way the query
// path constructs zero distance backends, however many queries run and
// whatever λ, k, or algorithm each one carries (metric.Constructions stays
// flat).
type corpus struct {
	mu      sync.Mutex     // guards the build state; writers never wait on readers
	ids     map[string]int // live id → corpus index
	items   []item
	dist    metric.Snapshotter // growable symmetric distance backend
	weights []float64          // index-aligned item weights (copy-on-write shared with epochs)
	idList  []string           // index-aligned item ids (copy-on-write shared with epochs)
	dirty   bool               // mutations since the last publish
	seq     uint64             // epochs published

	// Published epochs adopt weights/idList without copying, so publishes are
	// O(1) metadata-wise. These flags mark the backing arrays as shared: the
	// next in-place write below the slice length (a delete's swap or a weight
	// update) copies first. Appends never copy — epochs hold a fixed length,
	// and growth only writes at or past every shared view's end.
	weightsShared bool
	idsShared     bool

	store   epochStore
	scratch *core.StateCache // solver scratch shared across queries and epochs
	pool    *engine.Pool
	batch   *dispatcher // per-epoch query coalescing (limit 1 = disabled)

	queries atomic.Uint64 // solves served
}

// newCorpus builds an empty corpus on the named backend kind and publishes
// its initial (empty) epoch, so queries always have something to pin.
// batchLimit is the dispatcher's queries-per-solve cap; ≤ 1 disables
// coalescing (every query solves solo). rowCache bounds the vector
// backends' distance-row cache (≤ 0 = the metric package's default; ignored
// by triangular backends).
func newCorpus(pool *engine.Pool, backend string, batchLimit, rowCache int) (*corpus, error) {
	dist, err := metric.NewSnapshotterRowCache(backend, rowCache)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	c := &corpus{
		ids:     make(map[string]int),
		dist:    dist,
		scratch: core.NewStateCache(),
		pool:    pool,
		batch:   newDispatcher(batchLimit),
	}
	c.store.publish(c.buildEpochLocked())
	return c, nil
}

// apply folds one flushed shard mutation into the build state. It runs under
// the shard's lock (the flush path), so it takes the corpus write lock
// itself; lock order is always shard.mu → corpus.mu. The mutation becomes
// visible to queries at the next publishIfDirty.
func (c *corpus) apply(o op) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch o.kind {
	case opUpsert:
		return c.upsertLocked(o)
	case opDelete:
		c.deleteLocked(o.id)
		return nil
	default:
		return fmt.Errorf("server: corpus: unknown op kind %d", o.kind)
	}
}

func (c *corpus) upsertLocked(o op) error {
	if idx, live := c.ids[o.id]; live {
		if vectorsEqual(c.items[idx].vector, o.vector) {
			if c.items[idx].weight == o.weight {
				return nil
			}
			// Weight-only update: one O(1) write (after a copy-on-write if an
			// epoch shares the array), no distance churn, no O(n) publish cost.
			c.mutableWeights()[idx] = o.weight
			c.items[idx].weight = o.weight
			c.dirty = true
			return nil
		}
		// Vector change: every distance to this item is stale; reinsert.
		// The backend's incremental compaction keeps the delete+append pair
		// bounded — no full rebuild can fire inside this flush.
		c.deleteLocked(o.id)
	}
	var idx int
	var err error
	if va, ok := c.dist.(metric.VectorAppender); ok {
		// Vector-native insert: O(d) — the backend stores the vector and
		// computes distances on demand, so no O(n·d) row of cosine
		// distances is ever materialized.
		idx, err = va.AppendVector(o.vector)
	} else {
		dists := make([]float64, len(c.items))
		for j := range c.items {
			dists[j] = metric.CosineDist(o.vector, c.items[j].vector)
		}
		idx, err = c.dist.AppendRow(dists)
	}
	if err != nil {
		return fmt.Errorf("server: corpus insert %q: %w", o.id, err)
	}
	c.weights = append(c.weights, o.weight)
	c.idList = append(c.idList, o.id)
	c.items = append(c.items, item{id: o.id, weight: o.weight, vector: o.vector})
	c.ids[o.id] = idx
	c.dirty = true
	return nil
}

func (c *corpus) deleteLocked(id string) {
	idx, live := c.ids[id]
	if !live {
		return
	}
	if err := c.dist.RemoveSwap(idx); err != nil {
		// The index came straight from the ids map, so a failure means the
		// map and the distance backend have diverged — ids, items, weights,
		// and distances no longer describe the same corpus, and every epoch
		// published from this state would silently serve corrupt results.
		// That is an invariant violation, not a request error: fail loudly.
		panic(fmt.Sprintf(
			"server: corpus: RemoveSwap(%d) for id %q failed on a %d-item backend: %v — ids/backend invariant violated",
			idx, id, len(c.items), err))
	}
	last := len(c.items) - 1
	w := c.mutableWeights()
	w[idx] = w[last]
	c.weights = w[:last]
	il := c.mutableIDs()
	il[idx] = il[last]
	c.idList = il[:last]
	if idx != last {
		c.items[idx] = c.items[last]
		c.ids[c.items[idx].id] = idx
	}
	c.items = c.items[:last]
	delete(c.ids, id)
	c.dirty = true
}

// mutableWeights returns the weights slice safe for in-place writes below
// its length, copying first if a published epoch shares the backing array.
func (c *corpus) mutableWeights() []float64 {
	if c.weightsShared {
		c.weights = append(make([]float64, 0, cap(c.weights)), c.weights...)
		c.weightsShared = false
	}
	return c.weights
}

// mutableIDs is mutableWeights for the index-aligned id list.
func (c *corpus) mutableIDs() []string {
	if c.idsShared {
		c.idList = append(make([]string, 0, cap(c.idList)), c.idList...)
		c.idsShared = false
	}
	return c.idList
}

// buildEpochLocked snapshots the build state into a fresh epoch. Caller
// holds mu (or, for the initial epoch, exclusive ownership). The epoch
// adopts the id and weight slices copy-on-write — publish cost is O(changed
// rows) for the distance triangle and O(1) for metadata, so weight-only
// update storms no longer pay an O(n) ids+weights copy per publish. Weights
// were validated on the way in, so adopting without revalidation is safe.
func (c *corpus) buildEpochLocked() *epoch {
	c.seq++
	c.weightsShared, c.idsShared = true, true
	return &epoch{
		seq:     c.seq,
		n:       len(c.items),
		dist:    c.dist.Snapshot(),
		weights: setfunc.AdoptModular(c.weights),
		ids:     c.idList,
	}
}

// publishIfDirty publishes a new epoch if any mutation landed since the last
// one. Mutation flush paths call it after applying their batch; the query
// path calls it after the pre-solve flush fan-out, so every acknowledged
// mutation is visible to the query that follows it.
func (c *corpus) publishIfDirty() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dirty {
		return
	}
	c.store.publish(c.buildEpochLocked())
	c.dirty = false
}

// fillVectors resolves selected items' vectors against the live build state,
// for responses a cluster coordinator re-solves over. Items deleted since the
// solve stay vectorless (coordinators drop vectorless candidates).
func (c *corpus) fillVectors(items []SelectedItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range items {
		if idx, ok := c.ids[items[i].ID]; ok {
			items[i].Vector = c.items[idx].vector
		}
	}
}

// size returns the live item count of the build state.
func (c *corpus) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// queriesServed returns how many solves the corpus has answered.
func (c *corpus) queriesServed() uint64 { return c.queries.Load() }

// backendKind names the distance representation ("f64", "f32", "vec-f32",
// "vec-int8").
func (c *corpus) backendKind() string { return c.dist.Kind() }

// residentBytes approximates resident distance bytes: the build backend
// (whose current epoch shares its rows) plus every still-pinned superseded
// epoch's snapshot, so slow readers holding old generations show up in
// /stats instead of reading flat. Structural sharing between generations
// makes the sum an upper bound rather than an exact heap figure.
func (c *corpus) residentBytes() int64 {
	c.mu.Lock()
	build := c.dist.Bytes()
	c.mu.Unlock()
	return build + c.store.supersededBytes()
}

// rowCacheStats reports the vector backend's distance-row cache shape and
// lifetime hit/miss counters, aggregated across the build store and every
// published snapshot. ok is false for triangular backends (no row cache).
func (c *corpus) rowCacheStats() (rows int, hits, misses int64, ok bool) {
	v, isVec := c.dist.(*metric.VecStore)
	if !isVec {
		return 0, 0, 0, false
	}
	c.mu.Lock()
	rows = v.RowCacheCap()
	c.mu.Unlock()
	hits, misses = v.RowCacheCounters()
	return rows, hits, misses, true
}

// epochSeq returns the current epoch's sequence number.
func (c *corpus) epochSeq() uint64 { return c.store.current().seq }

// epochsLive returns how many published epochs are still referenced.
func (c *corpus) epochsLive() int64 { return c.store.live.Load() }

// solveSpec carries the per-query parameters down to the corpus.
type solveSpec struct {
	algo     core.Algo
	k        int
	lambda   float64
	parallel *engine.Pool // nil = corpus pool
}

// checkLimit rejects a solve whose algorithm is capped below n candidates
// (see queryLimit); n is the pinned epoch's pool size, immutable for the
// duration of the solve, so check and solve cannot race a flush.
func (spec solveSpec) checkLimit(n int) error {
	if name, limit := queryLimit(spec.algo); limit > 0 && n > limit {
		return badRequestError{fmt.Errorf("algorithm %s is limited to %d items (have %d); use another algorithm or shrink the candidate pool", name, limit, n)}
	}
	return nil
}

// solveResult is one query's outcome plus the items it selected.
type solveResult struct {
	sol   *core.Solution
	items []item // selected items, aligned with sol.Members order
	n     int    // candidate-pool size the solve ran over (n at epoch)
	epoch uint64 // sequence number of the pinned epoch
}

// solveFull answers a query over every item of the current epoch. The solve
// holds no lock: it pins the epoch, runs however long the algorithm takes,
// and unpins — concurrent flushes publish right past it, and the epoch's
// refcount keeps its rows alive until the solve finishes. The only
// per-query constructions are the O(1) objective struct and pooled scratch.
//
// Full-scope solves go through the batching dispatcher: concurrent queries
// pinning the same epoch with a compatible key (keyFor) share one solve —
// prefix-nested greedies even across different k, and the single-pick
// greedy family (core.MultiLambdaCapable) even across different λ —
// instead of redoing identical candidate scans. Per-query pool overrides
// bypass coalescing (their execution shape is theirs alone).
func (c *corpus) solveFull(ctx context.Context, spec solveSpec) (*solveResult, error) {
	e := c.store.pin()
	defer c.store.unpin(e)
	c.queries.Add(1)
	n := e.n
	if n == 0 || spec.k == 0 {
		return &solveResult{n: n, epoch: e.seq}, nil
	}
	if err := spec.checkLimit(n); err != nil {
		return nil, err
	}
	k := min(spec.k, n)
	obj, err := core.NewObjectiveCached(e.weights, spec.lambda, e.dist, c.scratch)
	if err != nil {
		return nil, err
	}
	cs := core.Spec{Algo: spec.algo, K: k, Ctx: ctx, Pool: c.poolFor(spec)}
	if c.batch.enabled() && spec.parallel == nil {
		ans, err := c.batch.dispatch(ctx, keyFor(e.seq, spec.algo, spec.lambda, k), spec.lambda, k,
			func(targets []core.LambdaTarget) (map[float64]answer, error) {
				return solveTargets(obj, cs, targets)
			})
		switch {
		case err == nil:
			return resultFromSolution(e, ans.Solution(k), n), nil
		case errors.Is(err, errJoinRetry):
			// The joined leader died of its own context, or the key's gangs
			// are full; this query is still live — fall through to a solo
			// solve on the same pinned epoch.
		default:
			return nil, err
		}
	}
	c.batch.solo.Add(1)
	sol, err := core.Solve(obj, cs)
	if err != nil {
		return nil, err
	}
	return resultFromSolution(e, sol, n), nil
}

// solveTargets runs one dispatched solve and returns an answer per target
// λ: a prefix-nested algorithm runs one core.SolveMultiTrace (fused across
// λ for the single-pick greedy family, one trace to the target's k
// otherwise), and every other algorithm a plain solution. Only the greedy
// family's keys carry more than one target; the others key on λ, so obj's
// own λ is the target's.
func solveTargets(obj *core.Objective, spec core.Spec, targets []core.LambdaTarget) (map[float64]answer, error) {
	out := make(map[float64]answer, len(targets))
	if core.PrefixNested(spec.Algo, targets[0].K) {
		traces, err := core.SolveMultiTrace(obj, spec, targets)
		if err != nil {
			return nil, err
		}
		for i, t := range targets {
			out[t.Lambda] = traces[i]
		}
		return out, nil
	}
	spec.K = targets[0].K
	sol, err := core.Solve(obj, spec)
	if err != nil {
		return nil, err
	}
	out[targets[0].Lambda] = fixedSolution{sol}
	return out, nil
}

// resultFromSolution materializes a full-scope solution against its pinned
// epoch. Coalesced queries share the *Solution (read-only after the solve);
// each builds its own item list.
func resultFromSolution(e *epoch, sol *core.Solution, n int) *solveResult {
	out := &solveResult{sol: sol, n: n, epoch: e.seq, items: make([]item, len(sol.Members))}
	for i, m := range sol.Members {
		out.items[i] = item{id: e.ids[m], weight: e.weights.Weight(m)}
	}
	return out
}

// solveSubset answers a query over the given item ids (the maintained
// scope's constant-size candidate pool), resolved against and solved on one
// pinned epoch — ids unknown to the epoch (e.g. raced by a delete) drop out.
// The subset view reads the epoch's snapshot through an index remap — still
// no backend construction; the only per-query state is O(|subset|).
func (c *corpus) solveSubset(ctx context.Context, ids []string, spec solveSpec) (*solveResult, error) {
	e := c.store.pin()
	defer c.store.unpin(e)
	c.queries.Add(1)
	subset := make([]int, 0, len(ids))
	for _, id := range ids {
		if idx, ok := e.index(id); ok {
			subset = append(subset, idx)
		}
	}
	m := len(subset)
	if m == 0 || spec.k == 0 {
		return &solveResult{n: m, epoch: e.seq}, nil
	}
	if err := spec.checkLimit(m); err != nil {
		return nil, err
	}
	k := min(spec.k, m)
	weights := make([]float64, m)
	for i, idx := range subset {
		weights[i] = e.weights.Weight(idx)
	}
	mod, err := setfunc.NewModular(weights)
	if err != nil {
		return nil, err
	}
	view := metric.Func{N: m, F: func(i, j int) float64 {
		return e.dist.Distance(subset[i], subset[j])
	}}
	obj, err := core.NewObjective(mod, spec.lambda, view)
	if err != nil {
		return nil, err
	}
	sol, err := core.Solve(obj, core.Spec{
		Algo: spec.algo,
		K:    k,
		Ctx:  ctx,
		Pool: c.poolFor(spec),
	})
	if err != nil {
		return nil, err
	}
	out := &solveResult{sol: sol, n: m, items: make([]item, len(sol.Members))}
	for i, mi := range sol.Members {
		idx := subset[mi]
		out.items[i] = item{id: e.ids[idx], weight: e.weights.Weight(idx)}
	}
	return out, nil
}

func (c *corpus) poolFor(spec solveSpec) *engine.Pool {
	if spec.parallel != nil {
		return spec.parallel
	}
	return c.pool
}
