package metric

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// Vector backend kinds accepted by NewSnapshotter. Unlike KindF64/KindF32,
// which store the O(n²/2) pairwise triangle, the vec kinds store only the
// O(n·d) item vectors and compute distances on demand — the representation
// that lets million-item corpora fit in memory.
const (
	// KindVecF32 stores flat float32 vectors (n·d·4 bytes) and computes
	// cosine distances on the fly.
	KindVecF32 = "vec-f32"
	// KindVecInt8 stores int8-quantized vectors with one float32 scale per
	// item (n·(d+4) bytes, ~4× smaller than KindVecF32). Cosine distance
	// depends only on direction, so the per-item scale cancels and the
	// quantization error is the rounding of each coordinate to 1/127 of the
	// item's largest magnitude.
	KindVecInt8 = "vec-int8"
)

// VectorAppender is the vector-native insert path: backends that store
// vectors instead of precomputed distance rows grow by one vector in O(d),
// skipping the O(n·d) distance-row computation AppendRow requires from its
// caller. The serving corpus type-switches on it — triangular backends take
// the AppendRow path, vector backends this one.
type VectorAppender interface {
	// AppendVector grows the ground set by one point with the given feature
	// vector, returning its index. The first non-empty vector fixes the
	// dimension; later vectors must match it. An empty vector is stored as
	// the zero vector (distance 1 to everything, the CosineDist convention).
	AppendVector(vec []float64) (int, error)
	// Dim returns the fixed vector dimension (0 until the first non-empty
	// append).
	Dim() int
}

// vecRowCacheCap is the default bound of the solution-row cache: how many
// computed distance rows a VecStore (and each of its snapshots) keeps.
// Local search folds the k solution members' rows in and out on every swap
// scan; a bound of a few dozen rows covers any practical k while capping
// cache memory at cap·n·4 bytes. Deployments tune it via
// NewVecStoreRowCache (cmd/serve -row-cache).
const vecRowCacheCap = 64

// rowCacheStats aggregates hit/miss counts across a store and every
// snapshot it publishes: snapshots get private row maps (their indexing is
// frozen independently) but share the parent's counters, so the lifetime
// numbers surfaced in /stats describe the whole serving read path, not
// just the rarely-read build state.
type rowCacheStats struct {
	hits, misses atomic.Int64
}

// rowCache memoizes computed distance rows keyed by point index, bounded by
// FIFO eviction. Safe for concurrent use; hits hand out shared immutable
// rows (callers must not mutate them). A snapshot's cache may also carry
// rows forward from the caches of earlier snapshots (see rowCarry).
type rowCache struct {
	mu    sync.Mutex
	rows  map[int][]float32
	order []int // insertion order for FIFO eviction
	cap   int
	stats *rowCacheStats
	carry atomic.Pointer[rowCarry] // link to the previous snapshot's cache, or nil
}

func newRowCache(capacity int, stats *rowCacheStats) *rowCache {
	if stats == nil {
		stats = &rowCacheStats{}
	}
	return &rowCache{rows: make(map[int][]float32, capacity), cap: capacity, stats: stats}
}

// get returns u's row — cached, or carried forward from an earlier
// snapshot's cache — or nil when it must be computed. A carried row counts
// as a hit: misses count the rows that are computed.
func (c *rowCache) get(d *vecData, u int) []float32 {
	c.mu.Lock()
	row := c.rows[u]
	c.mu.Unlock()
	if row == nil {
		if row = c.carried(d, u); row != nil {
			c.put(u, row)
		}
	}
	if row != nil {
		c.stats.hits.Add(1)
	} else {
		c.stats.misses.Add(1)
	}
	return row
}

// take removes u's row from the cache and returns it, or nil; it counts no
// lookup. A newer snapshot's cache takes a row it carries forward, so the
// lineage holds each row once.
func (c *rowCache) take(u int) []float32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	row := c.rows[u]
	if row != nil {
		delete(c.rows, u)
		i := slices.Index(c.order, u)
		c.order = slices.Delete(c.order, i, i+1)
	}
	return row
}

// put stores u's row, evicting the oldest entry at capacity.
func (c *rowCache) put(u int, row []float32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.rows[u]; ok {
		return
	}
	if len(c.order) >= c.cap {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.rows, oldest)
	}
	c.rows[u] = row
	c.order = append(c.order, u)
}

// reset drops every entry (mutation invalidates point indexing).
func (c *rowCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.rows)
	c.order = c.order[:0]
}

// counters returns lifetime hit/miss counts (shared across the owning
// store and all of its snapshots).
func (c *rowCache) counters() (hits, misses int64) {
	return c.stats.hits.Load(), c.stats.misses.Load()
}

// vecCarryDepth bounds how many snapshots back a row can be carried from.
// The lineage keeps vecCarryDepth+1 caches alive, so carried rows cost at
// most that many times the row-cache bound in memory; rows older than that
// are dropped with the cache that holds them.
const vecCarryDepth = 2

// rowCarry links the row cache of a snapshot to the cache of the snapshot
// published before it. Between the two, points were only appended or
// removed by RemoveSwap, and a surviving point keeps its vector, so a row
// the older snapshot cached still holds the right distance for every
// surviving point: carrying it forward costs an O(n) copy plus one Distance
// per point added since, instead of an O(n·d) row computation.
type rowCarry struct {
	parent *rowCache
	nPrev  int // points in the parent's snapshot
	// moved maps a position whose point sat elsewhere in the parent's
	// snapshot to that position, or to -1 for a point added since.
	// Positions below nPrev missing from it hold the same point as in the
	// parent; positions at or above nPrev missing from it are new points.
	moved map[int]int
}

// origin returns the parent position of the point at position v, or -1 if
// the point is new.
func (l *rowCarry) origin(v int) int {
	if o, ok := l.moved[v]; ok {
		return o
	}
	if v < l.nPrev {
		return v
	}
	return -1
}

// carried rebuilds u's row from the nearest earlier cache in the lineage
// that holds u's point, taking the row from it, or returns nil.
func (c *rowCache) carried(d *vecData, u int) []float32 {
	var links [vecCarryDepth]*rowCarry
	o := u
	l := c.carry.Load()
	for depth := 0; l != nil && depth < len(links); depth++ {
		if o = l.origin(o); o < 0 {
			return nil
		}
		links[depth] = l
		if src := l.parent.take(o); src != nil {
			return carryRow(d, u, src, links[:depth+1])
		}
		l = l.parent.carry.Load()
	}
	return nil
}

// carryRow maps src, point u's row in the snapshot links lead back to,
// onto the current positions. A position every link maps to itself keeps
// its src entry by one bulk copy; the rest follow the links one by one, and
// a point added since src was computed gets its Distance. Every entry is
// the value Distance returns, as in a computed row.
func carryRow(d *vecData, u int, src []float32, links []*rowCarry) []float32 {
	row := make([]float32, d.n)
	m := d.n
	for _, l := range links {
		m = min(m, l.nPrev)
	}
	copy(row[:m], src)
	fix := func(v int) {
		o := v
		for _, l := range links {
			if o = l.origin(o); o < 0 {
				row[v] = float32(d.Distance(u, v))
				return
			}
		}
		row[v] = src[o]
	}
	// A position a link moves is that link's child position, which equals
	// the current one unless an earlier link moved it — and then that
	// earlier link names it already.
	for _, l := range links {
		for v := range l.moved {
			if v < m {
				fix(v)
			}
		}
	}
	for v := m; v < d.n; v++ {
		fix(v)
	}
	return row
}

// vecData is the shared storage of a VecStore and its snapshots: flat
// vectors (float32 or int8-quantized), per-item norms, and item count. Rows
// i live at flat[i·dim : (i+1)·dim]; storage is append-only between
// copy-on-write points, so snapshots holding their own (slice-header, n)
// views stay immutable under later appends.
type vecData struct {
	dim   int
	n     int
	f32   []float32 // KindVecF32: flat n×dim coordinates
	q8    []int8    // KindVecInt8: flat n×dim quantized coordinates
	scale []float32 // KindVecInt8: per-item dequantization scale (q·scale ≈ v)
	norm  []float32 // per-item vector norm (of the stored representation)
}

// Len returns the number of live points.
func (d *vecData) Len() int { return d.n }

// cosine returns the cosine similarity of points i and j from the stored
// representation. For int8 the per-item scale cancels out of the ratio, so
// the integer dot over quantized coordinates is exact up to the quantization
// itself.
func (d *vecData) cosine(i, j int) float64 {
	ni, nj := d.norm[i], d.norm[j]
	if ni == 0 || nj == 0 {
		return 0
	}
	var s float64
	if d.f32 != nil {
		s = float64(dotF32(d.f32[i*d.dim:(i+1)*d.dim], d.f32[j*d.dim:(j+1)*d.dim]))
	} else {
		s = float64(dotI8(d.q8[i*d.dim:(i+1)*d.dim], d.q8[j*d.dim:(j+1)*d.dim]))
	}
	s /= float64(ni) * float64(nj)
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return s
}

// Distance returns the cosine distance 1 − cos(i, j), computed on demand
// from the stored vectors — no pairwise storage exists to look it up in.
// It is rounded to float32, the value the row cache stores, so every read
// path of the backend (Distance, AccumulateRow, Rows) agrees on each pair
// bit for bit; otherwise a swap gain mixing a folded d_u(S) with a fresh
// Distance would carry a rounding residue of ~1e-8 that local search can
// chase back and forth forever.
func (d *vecData) Distance(i, j int) float64 {
	if i == j {
		return 0
	}
	return float64(float32(1 - d.cosine(i, j)))
}

// cosineRow streams the whole flat array once to fill dst[v] = d(u, v) for
// every v — the compute-on-demand analogue of reading a stored triangular
// row. One pass over n·d contiguous coordinates with u's vector cache-hot.
func (d *vecData) cosineRow(u int, dst []float32) {
	dst = dst[:d.n]
	nu := d.norm[u]
	if nu == 0 {
		for v := range dst {
			dst[v] = 1
		}
		dst[u] = 0
		return
	}
	// Divide, clamp and round exactly as Distance does, so the cached row
	// holds bit for bit the values Distance returns.
	if d.f32 != nil {
		a := d.f32[u*d.dim : (u+1)*d.dim]
		for v := range dst {
			nv := d.norm[v]
			if nv == 0 {
				dst[v] = 1
				continue
			}
			s := float64(dotF32(a, d.f32[v*d.dim:(v+1)*d.dim])) / (float64(nu) * float64(nv))
			if s > 1 {
				s = 1
			} else if s < -1 {
				s = -1
			}
			dst[v] = float32(1 - s)
		}
	} else {
		a := d.q8[u*d.dim : (u+1)*d.dim]
		for v := range dst {
			nv := d.norm[v]
			if nv == 0 {
				dst[v] = 1
				continue
			}
			s := float64(dotI8(a, d.q8[v*d.dim:(v+1)*d.dim])) / (float64(nu) * float64(nv))
			if s > 1 {
				s = 1
			} else if s < -1 {
				s = -1
			}
			dst[v] = float32(1 - s)
		}
	}
	dst[u] = 0
}

// cosineRows is the batched cosineRow: one streaming pass over the whole
// flat array fills dsts[r][v] = d(us[r], v) for every query point us[r].
// Each stored vector is loaded once and dotted against all R query vectors
// while its cache lines are hot — R-fold reuse of the O(n·d) stream that
// cosineRow would otherwise repeat per row. Per pair the arithmetic is
// identical to cosineRow (same dot kernel, same float64 divide-and-clamp),
// so the rows are bit-for-bit what R separate cosineRow calls produce.
func (d *vecData) cosineRows(us []int, dsts [][]float32) {
	for r := range us {
		dsts[r] = dsts[r][:d.n]
	}
	if d.f32 != nil {
		for v := 0; v < d.n; v++ {
			nv := d.norm[v]
			bv := d.f32[v*d.dim : (v+1)*d.dim]
			for r, u := range us {
				nu := d.norm[u]
				if nu == 0 || nv == 0 {
					dsts[r][v] = 1
					continue
				}
				s := float64(dotF32(d.f32[u*d.dim:(u+1)*d.dim], bv)) / (float64(nu) * float64(nv))
				if s > 1 {
					s = 1
				} else if s < -1 {
					s = -1
				}
				dsts[r][v] = float32(1 - s)
			}
		}
	} else {
		for v := 0; v < d.n; v++ {
			nv := d.norm[v]
			bv := d.q8[v*d.dim : (v+1)*d.dim]
			for r, u := range us {
				nu := d.norm[u]
				if nu == 0 || nv == 0 {
					dsts[r][v] = 1
					continue
				}
				s := float64(dotI8(d.q8[u*d.dim:(u+1)*d.dim], bv)) / (float64(nu) * float64(nv))
				if s > 1 {
					s = 1
				} else if s < -1 {
					s = -1
				}
				dsts[r][v] = float32(1 - s)
			}
		}
	}
	for r, u := range us {
		dsts[r][u] = 0
	}
}

// VecStore is the compute-on-demand vector backend: it stores only the item
// vectors — flat float32 (KindVecF32, n·d·4 bytes) or int8-quantized with a
// per-item scale (KindVecInt8, n·(d+4) bytes) — and computes cosine
// distances on the fly, so resident memory is O(n·d) instead of the O(n²/2)
// every triangular backend pays. It implements the same Growable/Snapshotter
// contract as Tri, with two differences callers must know:
//
//   - Inserts are vector-native: AppendVector is O(d). AppendRow (the
//     distance-row insert of the triangular contract) fails by construction —
//     a distance row cannot be inverted back into a vector.
//   - AccumulateRow, the solvers' hot row fold, costs O(n·d) compute per
//     call instead of an O(n) stored-row stream. A bounded row cache
//     (vecRowCacheCap rows, FIFO) absorbs the repeated folds of
//     local-search swap scans, which touch the same k solution rows over
//     and over.
//
// RemoveSwap moves the last vector into the deleted slot (copy-on-write when
// a snapshot shares the storage) — O(d), no permutation, no compaction debt.
// Snapshot is O(1): storage is append-only between copy-on-write points, so
// a snapshot is a (slice header, n) view plus a row cache.
type VecStore struct {
	vecData
	kind     string
	shared   bool // flat/norm/scale arrays shared with a snapshot
	cache    *rowCache
	cacheCap int            // row bound for this store and every snapshot
	stats    *rowCacheStats // shared with every snapshot's cache
	// lineage holds the caches of the last published snapshots, oldest
	// first, each carry-linked to the one before it; pending records how
	// positions moved since the newest was published.
	lineage []*rowCache
	pending rowCarry
}

// NewVecStore returns an empty vector backend of the given kind (KindVecF32
// or KindVecInt8) with the default row-cache bound. The vector dimension is
// fixed by the first non-empty AppendVector.
func NewVecStore(kind string) (*VecStore, error) {
	return NewVecStoreRowCache(kind, 0)
}

// NewVecStoreRowCache is NewVecStore with an explicit row-cache bound: the
// store and each snapshot it publishes keep at most rows computed distance
// rows (rows ≤ 0 selects the default, vecRowCacheCap). Larger bounds trade
// memory (rows·n·4 bytes per live cache) for fewer O(n·d) row
// recomputations when working sets — maintained solution size, coalesced
// query fan-out — exceed the default.
func NewVecStoreRowCache(kind string, rows int) (*VecStore, error) {
	if rows <= 0 {
		rows = vecRowCacheCap
	}
	switch kind {
	case KindVecF32, KindVecInt8:
		stats := &rowCacheStats{}
		return &VecStore{kind: kind, cache: newRowCache(rows, stats), cacheCap: rows, stats: stats}, nil
	default:
		return nil, fmt.Errorf("metric: unknown vector backend kind %q (want %q or %q)", kind, KindVecF32, KindVecInt8)
	}
}

// NewVecStoreFromVectors bulk-loads a vector backend; empty slots take the
// zero-vector convention.
func NewVecStoreFromVectors(kind string, vecs [][]float64) (*VecStore, error) {
	s, err := NewVecStore(kind)
	if err != nil {
		return nil, err
	}
	for i, v := range vecs {
		if _, err := s.AppendVector(v); err != nil {
			return nil, fmt.Errorf("metric: vector %d: %w", i, err)
		}
	}
	return s, nil
}

// Kind names the backend representation.
func (s *VecStore) Kind() string { return s.kind }

// Dim returns the fixed vector dimension (0 until the first non-empty
// append).
func (s *VecStore) Dim() int { return s.dim }

// Bytes approximates resident storage: the flat vectors, per-item norms and
// scales, and the row cache's memoized rows. There is no n² term — that is
// the point.
func (s *VecStore) Bytes() int64 {
	b := int64(len(s.f32))*4 + int64(len(s.q8)) + int64(len(s.scale))*4 + int64(len(s.norm))*4
	if s.cache != nil {
		s.cache.mu.Lock()
		for _, row := range s.cache.rows {
			b += int64(len(row)) * 4
		}
		s.cache.mu.Unlock()
	}
	return b
}

// RowCacheCounters returns the solution-row cache's lifetime hit/miss
// counts, aggregated across this store and every snapshot it has published
// (introspection; the public API surfaces them).
func (s *VecStore) RowCacheCounters() (hits, misses int64) {
	return s.cache.counters()
}

// RowCacheCap returns the row bound of this store's cache (and of every
// snapshot's private cache).
func (s *VecStore) RowCacheCap() int { return s.cacheCap }

// AppendVector grows the backend by one point in O(d): the vector is stored
// (quantized for KindVecInt8) and its norm precomputed; no distances are
// materialized. The first non-empty vector fixes the dimension.
func (s *VecStore) AppendVector(vec []float64) (int, error) {
	for k, x := range vec {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("metric: AppendVector: coordinate %d is %g", k, x)
		}
	}
	if s.dim == 0 && len(vec) > 0 {
		if s.n > 0 {
			// Dimensionless points exist already (appended as empty vectors
			// before any dimension was known); they stay zero vectors.
			return 0, fmt.Errorf("metric: AppendVector: dim %d after %d dimensionless points", len(vec), s.n)
		}
		s.dim = len(vec)
	}
	if len(vec) != 0 && len(vec) != s.dim {
		return 0, fmt.Errorf("metric: AppendVector: dim %d, backend uses %d", len(vec), s.dim)
	}
	// Appends write past every snapshot's view (or relocate the array), so
	// no copy-on-write is needed here.
	switch s.kind {
	case KindVecF32:
		row := make([]float32, s.dim)
		var sum float64
		for k, x := range vec {
			f := float32(x)
			row[k] = f
			sum += float64(f) * float64(f)
		}
		s.f32 = append(s.f32, row...)
		s.norm = append(s.norm, float32(math.Sqrt(sum)))
	case KindVecInt8:
		row := make([]int8, s.dim)
		var maxAbs float64
		for _, x := range vec {
			if a := math.Abs(x); a > maxAbs {
				maxAbs = a
			}
		}
		scale := float32(0)
		if maxAbs > 0 {
			sc := maxAbs / 127
			scale = float32(sc)
			for k, x := range vec {
				row[k] = int8(math.RoundToEven(x / sc))
			}
		}
		var sum int64
		for _, q := range row {
			sum += int64(q) * int64(q)
		}
		s.q8 = append(s.q8, row...)
		s.scale = append(s.scale, scale)
		s.norm = append(s.norm, float32(math.Sqrt(float64(sum))))
	}
	if s.n < s.pending.nPrev {
		s.markMoved(s.n, -1)
	}
	s.n++
	s.cache.reset()
	return s.n - 1, nil
}

// AppendRow is the triangular contract's distance-row insert; a vector
// backend cannot honor it (a row of distances does not determine a vector),
// so it always fails. Callers growing a VecStore use AppendVector.
func (s *VecStore) AppendRow(dists []float64) (int, error) {
	return 0, fmt.Errorf("metric: %s is vector-native: use AppendVector, not AppendRow", s.kind)
}

// RemoveSwap deletes point u by moving the last point's vector into its slot
// — O(d) coordinate traffic, no permutation or compaction. Copy-on-write
// protects snapshots sharing the storage.
func (s *VecStore) RemoveSwap(u int) error {
	if u < 0 || u >= s.n {
		return fmt.Errorf("metric: RemoveSwap(%d): out of range [0,%d)", u, s.n)
	}
	s.mutable()
	last := s.n - 1
	if len(s.lineage) > 0 {
		if u != last {
			s.markMoved(u, s.pending.origin(last))
		}
		delete(s.pending.moved, last)
	}
	if u != last {
		if s.f32 != nil {
			copy(s.f32[u*s.dim:(u+1)*s.dim], s.f32[last*s.dim:(last+1)*s.dim])
		}
		if s.q8 != nil {
			copy(s.q8[u*s.dim:(u+1)*s.dim], s.q8[last*s.dim:(last+1)*s.dim])
			s.scale[u] = s.scale[last]
		}
		s.norm[u] = s.norm[last]
	}
	if s.f32 != nil {
		s.f32 = s.f32[:last*s.dim]
	}
	if s.q8 != nil {
		s.q8 = s.q8[:last*s.dim]
		s.scale = s.scale[:last]
	}
	s.norm = s.norm[:last]
	s.n = last
	if s.n == 0 {
		s.dim = 0
		s.f32, s.q8, s.scale, s.norm = nil, nil, nil, nil
	}
	s.cache.reset()
	return nil
}

// markMoved records that position v now holds the point at position o of
// the newest published snapshot (-1: a point added since).
func (s *VecStore) markMoved(v, o int) {
	if s.pending.moved == nil {
		s.pending.moved = make(map[int]int)
	}
	s.pending.moved[v] = o
}

// mutable copies the backing arrays if a snapshot shares them, so in-place
// writes below a snapshot's view cannot corrupt it.
func (s *VecStore) mutable() {
	if !s.shared {
		return
	}
	if s.f32 != nil {
		s.f32 = append(make([]float32, 0, cap(s.f32)), s.f32...)
	}
	if s.q8 != nil {
		s.q8 = append(make([]int8, 0, cap(s.q8)), s.q8...)
		s.scale = append(make([]float32, 0, cap(s.scale)), s.scale...)
	}
	s.norm = append(make([]float32, 0, cap(s.norm)), s.norm...)
	s.shared = false
}

// AccumulateRow adds sign·d(u, v) to dst[v] for every v, computing the row
// from vectors. The bounded row cache memoizes computed rows, so the
// repeated folds of a local-search swap scan (the k solution rows, in and
// out every scan) cost one computation each, not one per fold.
func (s *VecStore) AccumulateRow(u int, sign float64, dst []float64) {
	accumulateVecRow(&s.vecData, s.cache, u, sign, dst)
}

// accumulateVecRow is the shared fold of VecStore and its snapshots.
func accumulateVecRow(d *vecData, cache *rowCache, u int, sign float64, dst []float64) {
	row := cache.get(d, u)
	if row == nil {
		row = make([]float32, d.n)
		d.cosineRow(u, row)
		cache.put(u, row)
	}
	dst = dst[:len(row)]
	switch sign {
	case 1:
		for v, x := range row {
			dst[v] += float64(x)
		}
	case -1:
		for v, x := range row {
			dst[v] -= float64(x)
		}
	default:
		for v, x := range row {
			dst[v] += sign * float64(x)
		}
	}
}

// Snapshot publishes an immutable view of the current state in O(1): the
// flat storage is shared (copy-on-write protected against later removals)
// and the view keeps its own length, so appends never disturb it. Each
// snapshot gets its own row cache — its indexing is frozen, so cached rows
// never invalidate — linked to the previous snapshot's, so rows it cached
// are carried forward rather than recomputed (see rowCarry). A snapshot of
// an unchanged store shares the previous snapshot's cache.
func (s *VecStore) Snapshot() Snapshot {
	s.shared = true
	return &vecSnap{
		vecData: s.vecData,
		kind:    s.kind,
		bytes:   int64(len(s.f32))*4 + int64(len(s.q8)) + int64(len(s.scale))*4 + int64(len(s.norm))*4,
		cache:   s.snapCache(),
	}
}

// snapCache returns the row cache of a snapshot of the current state and
// appends it to the lineage, cutting the link that falls past
// vecCarryDepth.
func (s *VecStore) snapCache() *rowCache {
	last := len(s.lineage) - 1
	if last >= 0 && len(s.pending.moved) == 0 && s.n == s.pending.nPrev {
		return s.lineage[last]
	}
	c := newRowCache(s.cacheCap, s.stats)
	if last >= 0 {
		link := s.pending
		link.parent = s.lineage[last]
		c.carry.Store(&link)
	}
	s.pending = rowCarry{nPrev: s.n}
	s.lineage = append(s.lineage, c)
	if len(s.lineage) > vecCarryDepth+1 {
		s.lineage[1].carry.Store(nil)
		s.lineage[0] = nil
		s.lineage = s.lineage[1:]
	}
	return c
}

// vecSnap is the immutable view Snapshot returns: the same compute-on-demand
// read path over a frozen (slice header, n) view of the vector storage.
type vecSnap struct {
	vecData
	kind  string
	bytes int64
	cache *rowCache
}

// Kind names the backend representation this view reads.
func (s *vecSnap) Kind() string { return s.kind }

// Bytes approximates the resident bytes this view keeps alive (the vector
// storage; the row cache is excluded so epoch accounting stays stable
// across query churn).
func (s *vecSnap) Bytes() int64 { return s.bytes }

// AccumulateRow folds row u through the snapshot's cache.
func (s *vecSnap) AccumulateRow(u int, sign float64, dst []float64) {
	accumulateVecRow(&s.vecData, s.cache, u, sign, dst)
}

// Rows returns the distance rows of the given points (see RowBatcher).
func (s *vecSnap) Rows(us []int, scratch [][]float32) [][]float32 {
	return batchVecRows(&s.vecData, s.cache, us, scratch)
}

// RowBatcher is the batched row read: Rows fills one distance row per query
// point, computing every cache miss in a single streaming pass over the
// stored vectors instead of one pass per row (cosineRows). The returned
// rows may be shared with the backend's cache — callers must not mutate
// them. scratch, if non-nil, is reused for the returned headers so a warm
// (all-hit) call allocates nothing.
//
// Vector backends (VecStore and its snapshots) implement it; callers that
// need several rows of the same epoch — multi-λ shared solves warming the
// rows their branches are about to fold — type-assert for it and fall back
// to per-row AccumulateRow when absent.
type RowBatcher interface {
	Rows(us []int, scratch [][]float32) [][]float32
}

// Rows returns the distance rows of the given points (see RowBatcher).
func (s *VecStore) Rows(us []int, scratch [][]float32) [][]float32 {
	return batchVecRows(&s.vecData, s.cache, us, scratch)
}

// batchVecRows is the shared Rows implementation: cache hits are handed out
// directly; all misses are computed in one cosineRows pass and cached.
func batchVecRows(d *vecData, cache *rowCache, us []int, scratch [][]float32) [][]float32 {
	out := scratch[:0]
	if cap(out) < len(us) {
		out = make([][]float32, 0, len(us))
	}
	var missPts []int
	var missAt []int
	for i, u := range us {
		row := cache.get(d, u)
		out = append(out, row)
		if row == nil {
			missPts = append(missPts, u)
			missAt = append(missAt, i)
		}
	}
	if len(missPts) > 0 {
		rows := make([][]float32, len(missPts))
		for i := range rows {
			// One slice per row, not a flat block: cached rows are evicted
			// independently, and a flat block would pin every row's memory
			// for as long as any one of them stays cached.
			rows[i] = make([]float32, d.n)
		}
		d.cosineRows(missPts, rows)
		for i, u := range missPts {
			cache.put(u, rows[i])
			out[missAt[i]] = rows[i]
		}
	}
	return out
}

var (
	_ Snapshotter    = (*VecStore)(nil)
	_ VectorAppender = (*VecStore)(nil)
	_ Snapshot       = (*vecSnap)(nil)
	_ RowBatcher     = (*VecStore)(nil)
	_ RowBatcher     = (*vecSnap)(nil)
)
