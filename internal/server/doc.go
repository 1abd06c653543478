// Package server exposes max-sum diversification as a long-running HTTP
// service over a sharded in-memory item index — the serve-while-updating
// workload that motivates the paper's dynamic-update results (Section 6)
// and the follow-up fully dynamic submodular maximization literature, where
// update time is the first-class metric.
//
// # Architecture
//
// Items hash by ID onto a fixed set of shards. Each shard owns
//
//   - its slice of live items (id, quality weight, feature vector),
//   - a fully dynamic update [maxsumdiv/internal/dynamic.Session] that
//     maintains a diversified selection of configurable size across
//     inserts, deletes and weight changes via the paper's oblivious
//     single-swap rule, and
//   - a pending-mutation queue: writes are O(1) appends coalesced by item
//     ID (the last upsert of an ID wins; an insert followed by a delete
//     cancels), applied in one batch when a query arrives or the queue
//     hits its flush threshold.
//
// Every flushed mutation is additionally written through to one long-lived
// corpus, which is an epoch/snapshot store:
//
//   - The write side is a growable distance backend (one O(n) triangular
//     row append per insert, one permutation-only swap-removal per delete)
//     plus index-aligned weights, guarded by a mutex that only writers
//     take.
//   - After a flush batch lands, the corpus publishes an immutable epoch:
//     the distance triangle is shared structurally with every earlier
//     epoch (rows are never mutated after append) and the id/weight
//     metadata is copy-on-write — publishing is O(changed rows) for the
//     distances and O(1) for the metadata, so a weight-only storm pays no
//     per-epoch copies at all. A pointer swap makes the epoch current.
//   - Queries pin the current epoch with a refcount and solve entirely
//     lock-free — no query ever holds a lock a mutation could queue
//     behind, and no flush can change what a running solve observes. A
//     superseded epoch stays readable until its last query unpins it.
//
// Two mechanisms keep both sides fast under pressure:
//
//   - Query batching (Config.Batch, cmd/serve -batch): in-flight full-scope
//     queries that pin the same epoch are coalesced by a dispatcher into
//     gangs keyed by (epoch, algorithm, λ, k), where λ and k stay zero
//     whenever the algorithm can share across them. The first query on an
//     idle key runs the solve; a query the running solve covers joins and
//     waits, and any other gathers into the next generation, which one of
//     its members runs as soon as the current one finishes. One candidate
//     scan's distance-row folds thus feed every member. A leader yields its
//     processor once before solving, so identical queries that are already
//     runnable join its call even when the solve itself never parks.
//
//     Every prefix-nested run (see core.PrefixNested) is one traced solve,
//     core.SolveMultiTrace, each member reading its own k-prefix of a
//     core.GreedyTrace. The single-pick greedy family ("greedy",
//     "oblivious") shares across λ and k: a generation's solve carries one
//     target per λ, whose branches share each round's candidate scan and
//     distance-row fold until their picks diverge. "greedy-improved" from
//     k = 2 shares across k only: one target, its own λ.
//     Every other algorithm coalesces only exact duplicates. Every answer
//     is bit-identical to a solo solve. A joiner whose leader is cancelled,
//     or a query that finds both generations full, falls back to a solo
//     solve; /stats reports the coalesced/solo split.
//
//   - Mutation backpressure (Config.MaxEpochsLive, cmd/serve
//     -max-epochs-live): every published-but-pinned epoch keeps distance
//     rows resident, so when slow readers hold more than the bound alive,
//     mutation requests are shed with 429 + Retry-After instead of
//     retaining yet another generation. /stats counts sheds as
//     mutations_shed and reports the truthful resident_bytes (build backend
//     plus pinned superseded epochs).
//
// Deletes (and vector rewrites, which are delete + reinsert) retire
// triangle rows in place; the backend compacts incrementally — bounded
// migration work per mutation, never a stop-the-world O(n²) rebuild inside
// a flush (see maxsumdiv/internal/metric.Tri).
//
// The backend representation is pluggable (Config.Backend, cmd/serve
// -backend): "f64" stores exact float64 rows; "f32" stores float32 rows at
// half the resident bytes (~2·n² vs ~4·n² for n items), which is what lets
// corpora twice as large fit the same memory budget; "vec-f32"/"vec-int8"
// store only the item vectors (O(n·d) resident) and compute cosine rows on
// demand through maxsumdiv/internal/metric's dispatched dot kernels,
// behind a bounded per-snapshot row cache (Config.RowCache, cmd/serve
// -row-cache) that carries rows forward from earlier epochs across writes.
// /stats reports the compiled kernel variant
// (corpus.kernel) and, on vector backends, the row-cache hit/miss/evict
// counters (corpus.row_cache). Either way the query
// path constructs no problem, no distance backend, and no worker pool,
// whatever algorithm, λ, or k each request carries, and the request
// context cancels a solve mid-scan. The "maintained" scope instead solves
// over just the union of the shards' maintained selections — a
// constant-size candidate pool that trades a little quality for latency
// independent of the corpus size — through a subset view of the same
// pinned epoch.
//
// # Endpoints
//
//	POST   /items       insert or update one item or an array of items
//	DELETE /items/{id}  delete an item
//	POST   /diversify   {"k":10,"algorithm":"greedy","scope":"full"}
//	GET    /healthz     liveness + item count
//	GET    /stats       shard sizes, pending queues, maintained values,
//	                    corpus backend/epoch/memory, latency percentiles
//
// See cmd/serve for the binary and cmd/loadgen for a workload driver
// (including the -contention writer-stall probe).
package server
