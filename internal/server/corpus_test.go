package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"maxsumdiv/internal/metric"
)

// TestServerQueryZeroBackendConstructions is the redesign's core contract:
// once mutations are flushed into the long-lived corpus, queries — across
// algorithms and per-query λ overrides — must construct no distance
// backend at all. metric.Constructions counts every Materialize /
// MaterializeF32 / Memoize in the process, so a flat counter across the
// query burst proves the whole query path runs on the shared backend.
func TestServerQueryZeroBackendConstructions(t *testing.T) {
	s, err := New(Config{Shards: 4, Lambda: 0.5, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		id := itemID(i)
		sh := s.shardFor(id)
		sh.enqueue(op{kind: opUpsert, id: id, weight: rng.Float64(), vector: randVec(rng, 6)})
	}
	ctx := context.Background()
	// First query flushes the queues into the corpus (incremental row
	// appends — also not backend constructions, but let it settle anyway).
	if _, err := s.Diversify(ctx, DiversifyRequest{K: 8}); err != nil {
		t.Fatal(err)
	}
	before := metric.Constructions()
	lambdas := []float64{0, 0.25, 1, 3}
	algos := []string{"greedy", "greedy-improved", "gs", "oblivious", "localsearch"}
	var last float64
	for i := 0; i < 20; i++ {
		req := DiversifyRequest{K: 6 + i%5, Algorithm: algos[i%len(algos)]}
		l := lambdas[i%len(lambdas)]
		req.Lambda = &l
		resp, err := s.Diversify(ctx, req)
		if err != nil {
			t.Fatalf("query %d (%s, λ=%g): %v", i, req.Algorithm, l, err)
		}
		if len(resp.Items) != req.K {
			t.Fatalf("query %d: got %d items, want %d", i, len(resp.Items), req.K)
		}
		last = resp.Value
	}
	if last <= 0 {
		t.Fatalf("queries returned a non-positive objective %g", last)
	}
	if got := metric.Constructions(); got != before {
		t.Fatalf("query burst constructed %d distance backends, want 0", got-before)
	}
	// The maintained scope's subset view must also stay construction-free.
	beforeMaintained := metric.Constructions()
	if _, err := s.Diversify(ctx, DiversifyRequest{K: 4, Scope: "maintained"}); err != nil {
		t.Fatal(err)
	}
	if got := metric.Constructions(); got != beforeMaintained {
		t.Fatalf("maintained query constructed %d distance backends, want 0", got-beforeMaintained)
	}
}

// TestServerCorpusIncrementalMaintenance drives churn (inserts, weight
// updates, vector updates, deletes) through the queues and checks the
// corpus stays exactly consistent with a from-scratch recomputation of the
// query answer.
func TestServerCorpusIncrementalMaintenance(t *testing.T) {
	s, err := New(Config{Shards: 2, Lambda: 0.5, Parallelism: 1, FlushThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	vecs := make(map[string][]float64)
	weights := make(map[string]float64)
	upsert := func(id string, w float64, v []float64) {
		sh := s.shardFor(id)
		if n, _ := sh.enqueue(op{kind: opUpsert, id: id, weight: w, vector: v}); n >= s.cfg.FlushThreshold {
			if _, err := sh.flush(); err != nil {
				t.Fatal(err)
			}
		}
		vecs[id], weights[id] = v, w
	}
	for i := 0; i < 60; i++ {
		upsert(itemID(i), rng.Float64(), randVec(rng, 4))
	}
	// Weight-only updates and vector rewrites on existing ids.
	for i := 0; i < 20; i++ {
		id := itemID(rng.Intn(60))
		if rng.Intn(2) == 0 {
			upsert(id, rng.Float64(), vecs[id])
		} else {
			upsert(id, weights[id], randVec(rng, 4))
		}
	}
	// A few deletes.
	for i := 0; i < 10; i++ {
		id := itemID(rng.Intn(60))
		if _, ok := weights[id]; !ok {
			continue
		}
		sh := s.shardFor(id)
		if _, ok := sh.enqueue(op{kind: opDelete, id: id}); ok {
			delete(weights, id)
			delete(vecs, id)
		}
	}
	resp, err := s.Diversify(ctx, DiversifyRequest{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp.N != len(weights) {
		t.Fatalf("corpus has %d items, client model has %d", resp.N, len(weights))
	}
	// Recompute φ(S) of the returned selection from the client-side model.
	var quality, dispersion float64
	sel := resp.Items
	for i, it := range sel {
		w, ok := weights[it.ID]
		if !ok {
			t.Fatalf("selected deleted item %q", it.ID)
		}
		if w != it.Weight {
			t.Fatalf("item %q weight drifted: corpus %g, model %g", it.ID, it.Weight, w)
		}
		quality += w
		for j := 0; j < i; j++ {
			dispersion += metric.CosineDist(vecs[it.ID], vecs[sel[j].ID])
		}
	}
	want := quality + 0.5*dispersion
	if math.Abs(want-resp.Value)/math.Max(1, want) > 1e-9 {
		t.Fatalf("corpus objective drifted from recomputation: got %g, want %g", resp.Value, want)
	}
}

// TestServerWeightOnlyCorpus checks that items without vectors still serve:
// every pairwise cosine distance degrades to 1, so queries answer by
// weight.
func TestServerWeightOnlyCorpus(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Lambda: 0.5, Parallelism: 1})
	batch := []ItemPayload{
		{ID: "hi", Weight: 0.9},
		{ID: "mid", Weight: 0.5},
		{ID: "lo", Weight: 0.1},
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/items", batch, nil); code != http.StatusOK {
		t.Fatalf("upsert: status %d", code)
	}
	var resp DiversifyResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/diversify", DiversifyRequest{K: 2}, &resp); code != http.StatusOK {
		t.Fatalf("diversify: status %d", code)
	}
	if len(resp.Items) != 2 {
		t.Fatalf("got %d items", len(resp.Items))
	}
	got := map[string]bool{resp.Items[0].ID: true, resp.Items[1].ID: true}
	if !got["hi"] || !got["mid"] {
		t.Fatalf("weight-only query picked %v, want hi+mid", resp.Items)
	}
}

// TestServerBackendF32MatchesF64 pins the backend plug point: the f32 and
// f64 corpora must return the same result IDs for the same data and query
// (the ~1e-7 relative float32 rounding is far below the gaps between
// random distances), with objective values agreeing to that rounding.
func TestServerBackendF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	batch := make([]ItemPayload, 80)
	for i := range batch {
		batch[i] = ItemPayload{
			ID:     itemID(i),
			Weight: rng.Float64(),
			Vector: randVec(rand.New(rand.NewSource(int64(i))), 6),
		}
	}
	run := func(cfg Config) (*DiversifyResponse, Stats) {
		s, ts := newTestServer(t, cfg)
		if code := doJSON(t, http.MethodPost, ts.URL+"/items", batch, nil); code != http.StatusOK {
			t.Fatalf("upsert: status %d", code)
		}
		var resp DiversifyResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/diversify",
			DiversifyRequest{K: 10, Algorithm: "greedy"}, &resp); code != http.StatusOK {
			t.Fatalf("diversify: status %d", code)
		}
		return &resp, s.Stats()
	}
	idsOf := func(r *DiversifyResponse) []string {
		ids := make([]string, len(r.Items))
		for i, it := range r.Items {
			ids[i] = it.ID
		}
		sort.Strings(ids)
		return ids
	}
	base, baseStats := run(Config{Shards: 2, Lambda: 0.5, Parallelism: 1})
	f32, f32Stats := run(Config{Shards: 2, Lambda: 0.5, Parallelism: 1, Backend: BackendF32})
	if baseStats.Corpus.Backend != string(BackendF64) || f32Stats.Corpus.Backend != string(BackendF32) {
		t.Fatalf("backend kinds: base %q, f32 %q", baseStats.Corpus.Backend, f32Stats.Corpus.Backend)
	}
	if got, want := idsOf(f32), idsOf(base); !slices.Equal(got, want) {
		t.Fatalf("f32 corpus selected %v, f64 selected %v", got, want)
	}
	if math.Abs(f32.Value-base.Value) > 1e-6*math.Max(1, math.Abs(base.Value)) {
		t.Fatalf("objective diverged past f32 rounding: %g vs %g", f32.Value, base.Value)
	}
	// The f32 backend stores the same triangle in half the resident bytes.
	if r := f32Stats.Corpus.BytesPerItem / baseStats.Corpus.BytesPerItem; r > 0.55 || r <= 0 {
		t.Fatalf("f32 bytes/item ratio = %.3f of f64, want ≈ 0.5", r)
	}
}

// TestServerQueryTimeout wires Config.QueryTimeout through the handler: a
// deadline that has effectively already passed must surface as 504, not
// hang in the exact solver.
func TestServerQueryTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2, Lambda: 0.5, Parallelism: 1, QueryTimeout: time.Nanosecond})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		id := itemID(i)
		sh := s.shardFor(id)
		sh.enqueue(op{kind: opUpsert, id: id, weight: rng.Float64(), vector: randVec(rng, 4)})
	}
	var out map[string]any
	code := doJSON(t, http.MethodPost, ts.URL+"/diversify",
		DiversifyRequest{K: 10, Algorithm: "exact"}, &out)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want %d (resp %v)", code, http.StatusGatewayTimeout, out)
	}
}

// TestCorpusDeleteInvariantViolationPanics pins the deleteLocked bugfix: a
// RemoveSwap failure means the ids map and the distance backend describe
// different corpora, and every epoch published from that state would
// silently serve corrupt results — the corpus must panic with a diagnostic,
// not swallow the error and limp on.
func TestCorpusDeleteInvariantViolationPanics(t *testing.T) {
	c, err := newCorpus(nil, metric.KindF64, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.apply(op{kind: opUpsert, id: "a", weight: 1, vector: []float64{1, 0}}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.ids["a"] = 7 // force ids/backend divergence: index past the backend's size
	c.mu.Unlock()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deleteLocked swallowed a RemoveSwap failure instead of panicking")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "invariant") {
			t.Fatalf("panic %v is not the invariant-violation diagnostic", r)
		}
	}()
	_ = c.apply(op{kind: opDelete, id: "a"})
}

// TestServerVectorRewriteFlushBounded pins the flush-stall fix at the server
// level: rewriting an existing item's vector takes the delete+reinsert path
// under corpus.mu with the shard lock held — under the old stop-the-world
// compaction one such flush could rebuild the whole O(n²) triangle. With
// incremental compaction, no single flush may build more than one removal
// step plus one append step of compaction rows, however long the rewrite
// storm runs.
func TestServerVectorRewriteFlushBounded(t *testing.T) {
	s, err := New(Config{Shards: 1, Lambda: 0.5, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	loadItems(t, s, n, 4, 9)
	rng := rand.New(rand.NewSource(10))
	// Bound per flush: the RemoveSwap may patch one migrated row and run one
	// migration step, the AppendRow runs another step.
	const bound = 2*metric.TriCompactStep + 1
	sawCompaction := false
	for i := 0; i < 400; i++ {
		id := fmt.Sprintf("ep-%d", rng.Intn(n))
		before := metric.CompactionRows()
		applyMutation(t, s, id, rng)
		if delta := metric.CompactionRows() - before; delta > bound {
			t.Fatalf("rewrite %d: one flush built %d compaction rows, bound is %d", i, delta, bound)
		} else if delta > 0 {
			sawCompaction = true
		}
	}
	if !sawCompaction {
		t.Fatal("rewrite storm never exercised incremental compaction")
	}
	if got := s.corpus.size(); got != n {
		t.Fatalf("corpus size %d after pure rewrites, want %d", got, n)
	}
}

// itemID builds a distinct id per index.
func itemID(i int) string {
	return string(rune('a'+i%26)) + string(rune('A'+i/26%26))
}
