package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"maxsumdiv/internal/metric"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

func TestServerCRUDAndQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 4, Lambda: 0.5, MaintainK: 3})
	rng := rand.New(rand.NewSource(1))

	// Batch insert.
	batch := make([]ItemPayload, 20)
	for i := range batch {
		batch[i] = ItemPayload{ID: fmt.Sprintf("item-%02d", i), Weight: rng.Float64(), Vector: randVec(rng, 4)}
	}
	var mut MutationResponse
	if code := doJSON(t, "POST", ts.URL+"/items", batch, &mut); code != http.StatusOK {
		t.Fatalf("insert batch: status %d", code)
	}
	if mut.Accepted != 20 {
		t.Fatalf("accepted %d, want 20", mut.Accepted)
	}

	var health struct {
		Status string `json:"status"`
		Items  int    `json:"items"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Items != 20 || health.Status != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	// Query: exactly k items, no duplicates, all known ids.
	var dres DiversifyResponse
	if code := doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 5}, &dres); code != http.StatusOK {
		t.Fatalf("diversify status %d", code)
	}
	if len(dres.Items) != 5 || dres.N != 20 {
		t.Fatalf("diversify = %+v", dres)
	}
	seen := map[string]bool{}
	for _, it := range dres.Items {
		if seen[it.ID] || !strings.HasPrefix(it.ID, "item-") {
			t.Fatalf("bad result item %q (dup=%v)", it.ID, seen[it.ID])
		}
		seen[it.ID] = true
	}

	// k clamps to n.
	if doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 99}, &dres); len(dres.Items) != 20 {
		t.Fatalf("clamped query returned %d items, want 20", len(dres.Items))
	}

	// Delete, then verify the item never reappears.
	if code := doJSON(t, "DELETE", ts.URL+"/items/item-03", nil, &mut); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/items/item-03", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete status %d, want 404", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/items/never-existed", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown delete status %d, want 404", code)
	}
	if doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 19}, &dres); len(dres.Items) != 19 {
		t.Fatalf("post-delete query returned %d items", len(dres.Items))
	}
	for _, it := range dres.Items {
		if it.ID == "item-03" {
			t.Fatal("deleted item returned by query")
		}
	}

	// Upsert changes the weight in place.
	if code := doJSON(t, "POST", ts.URL+"/items", ItemPayload{ID: "item-00", Weight: 9.5, Vector: batch[0].Vector}, &mut); code != http.StatusOK {
		t.Fatalf("upsert status %d", code)
	}
	doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 1}, &dres)
	if len(dres.Items) != 1 || dres.Items[0].ID != "item-00" || dres.Items[0].Weight != 9.5 {
		t.Fatalf("upserted weight not visible: %+v", dres.Items)
	}
}

func TestServerAlgorithmsAndScopes(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Lambda: 0.4, MaintainK: 4})
	rng := rand.New(rand.NewSource(2))
	batch := make([]ItemPayload, 12)
	for i := range batch {
		batch[i] = ItemPayload{ID: fmt.Sprintf("x%d", i), Weight: rng.Float64(), Vector: randVec(rng, 3)}
	}
	doJSON(t, "POST", ts.URL+"/items", batch, nil)

	for _, algo := range []string{"greedy", "greedy-improved", "gs", "oblivious", "localsearch", "exact"} {
		var dres DiversifyResponse
		code := doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 4, Algorithm: algo}, &dres)
		if code != http.StatusOK || len(dres.Items) != 4 {
			t.Fatalf("algo %s: status %d items %d", algo, code, len(dres.Items))
		}
	}
	// Maintained scope solves over the union of shard selections.
	var dres DiversifyResponse
	code := doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 4, Scope: "maintained"}, &dres)
	if code != http.StatusOK || len(dres.Items) != 4 {
		t.Fatalf("maintained scope: status %d, %d items", code, len(dres.Items))
	}
	if dres.N > 8 { // 2 shards × MaintainK 4
		t.Fatalf("maintained pool has %d candidates, want ≤ 8", dres.N)
	}

	// Per-query lambda override.
	zero := 0.0
	code = doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 3, Lambda: &zero}, &dres)
	if code != http.StatusOK || dres.Dispersion == 0 && len(dres.Items) != 3 {
		t.Fatalf("lambda override: status %d %+v", code, dres)
	}
	if dres.Value != dres.Quality {
		t.Fatalf("λ=0 query should have φ = quality: %+v", dres)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	bad := []struct{ path, body string }{
		{"/items", ``},
		{"/items", `{}`},
		{"/items", `{"id":"a","weight":-1}`},
		{"/items", `{"id":"a","weight":1,"vector":[1,"x"]}`},
		{"/items", `{"id":"a","weight":1,"bogus":2}`},
		{"/items", `[]`},
		{"/items", `[{"id":"a","weight":1,"vector":[1]},{"id":"b","weight":1,"vector":[1,2]}]`},
		{"/items", `{"id":"a","weight":1} trailing`},
		{"/diversify", `{"k":-1}`},
		{"/diversify", `{"k":1,"algorithm":"no-such"}`},
		{"/diversify", `{"k":1,"scope":"no-such"}`},
		{"/diversify", `{"k":1,"lambda":-2}`},
	}
	for _, c := range bad {
		if code := post(c.path, c.body); code != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d, want 400", c.path, c.body, code)
		}
	}
	// Empty corpus query is fine.
	var dres DiversifyResponse
	if code := doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 5}, &dres); code != http.StatusOK || len(dres.Items) != 0 {
		t.Fatalf("empty corpus query: %d %+v", code, dres)
	}
	// Exact over a too-large corpus is a client error.
	batch := make([]ItemPayload, exactQueryLimit+1)
	for i := range batch {
		batch[i] = ItemPayload{ID: fmt.Sprintf("e%d", i), Weight: 1, Vector: []float64{float64(i), 1}}
	}
	doJSON(t, "POST", ts.URL+"/items", batch, nil)
	if code := post("/diversify", `{"k":3,"algorithm":"exact"}`); code != http.StatusBadRequest {
		t.Errorf("oversized exact query: status %d, want 400", code)
	}
	// So is Gollapudi–Sharma past its edge budget; greedy still serves.
	batch = make([]ItemPayload, gsQueryLimit+1-len(batch))
	for i := range batch {
		batch[i] = ItemPayload{ID: fmt.Sprintf("g%d", i), Weight: 1, Vector: []float64{float64(i), 2}}
	}
	doJSON(t, "POST", ts.URL+"/items", batch, nil)
	if code := post("/diversify", `{"k":3,"algorithm":"gs"}`); code != http.StatusBadRequest {
		t.Errorf("oversized gs query over %d items: status %d, want 400", gsQueryLimit+1, code)
	}
	if code := post("/diversify", `{"k":3,"algorithm":"greedy"}`); code != http.StatusOK {
		t.Errorf("greedy query over %d items: status %d, want 200", gsQueryLimit+1, code)
	}
	// The corpus dimension is pinned across requests: a later item with a
	// different vector dimension is rejected, matching-dimension and
	// vectorless items still pass.
	if code := post("/items", `{"id":"dim3","weight":1,"vector":[1,2,3]}`); code != http.StatusBadRequest {
		t.Errorf("cross-request dim mismatch: status %d, want 400", code)
	}
	if code := post("/items", `{"id":"dim2","weight":1,"vector":[4,5]}`); code != http.StatusOK {
		t.Errorf("matching dim rejected: status %d", code)
	}
	if code := post("/items", `{"id":"novec","weight":1}`); code != http.StatusOK {
		t.Errorf("vectorless item rejected: status %d", code)
	}
}

// TestServerCoalescing checks the pending-queue semantics: repeated upserts
// of one id collapse, and insert+delete cancels without the item ever
// becoming visible.
func TestServerCoalescing(t *testing.T) {
	s, err := New(Config{Shards: 1, MaintainK: 2, FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	for i := 0; i < 10; i++ {
		sh.enqueue(op{kind: opUpsert, id: "a", weight: float64(i)})
	}
	if n := sh.pendingLen(); n != 1 {
		t.Fatalf("10 upserts of one id queued %d ops, want 1", n)
	}
	sh.enqueue(op{kind: opUpsert, id: "b", weight: 1})
	sh.enqueue(op{kind: opDelete, id: "b"})
	if got := sh.liveCount(); got != 1 {
		t.Fatalf("liveCount = %d, want 1 (b cancelled)", got)
	}
	if _, err := sh.flush(); err != nil {
		t.Fatal(err)
	}
	if len(sh.items) != 1 || sh.items[0].id != "a" || sh.items[0].weight != 9 {
		t.Fatalf("flushed items = %+v, want only a@9", sh.items)
	}
	// Delete of a live item via the queue.
	sh.enqueue(op{kind: opDelete, id: "a"})
	if got := sh.liveCount(); got != 0 {
		t.Fatalf("liveCount = %d, want 0", got)
	}
	if _, err := sh.flush(); err != nil {
		t.Fatal(err)
	}
	if len(sh.items) != 0 || len(sh.ids) != 0 {
		t.Fatalf("shard not empty after delete: %+v", sh.items)
	}
	if _, ok := sh.enqueue(op{kind: opDelete, id: "a"}); ok {
		t.Fatal("delete of a gone item accepted")
	}
}

// TestServerConcurrentMixedLoad hammers the server from many goroutines
// (run under -race in CI): inserts, deletes, weight updates, queries and
// stats all interleave, and every query result must be duplicate-free with
// |result| = min(k, n-at-snapshot).
func TestServerConcurrentMixedLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 4, Lambda: 0.5, MaintainK: 3, FlushThreshold: 8})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			myIDs := []string{}
			for i := 0; i < 40; i++ {
				switch {
				case len(myIDs) > 5 && rng.Float64() < 0.2:
					id := myIDs[rng.Intn(len(myIDs))]
					req, _ := http.NewRequest("DELETE", ts.URL+"/items/"+id, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						last := len(myIDs) - 1
						for j, v := range myIDs {
							if v == id {
								myIDs[j] = myIDs[last]
								break
							}
						}
						myIDs = myIDs[:last]
					}
				case rng.Float64() < 0.3:
					var dres DiversifyResponse
					k := 1 + rng.Intn(6)
					code := doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: k}, &dres)
					if code != http.StatusOK {
						t.Errorf("query status %d", code)
						return
					}
					want := k
					if dres.N < want {
						want = dres.N
					}
					if len(dres.Items) != want {
						t.Errorf("query returned %d items, want min(%d, %d)", len(dres.Items), k, dres.N)
						return
					}
					seen := map[string]bool{}
					for _, it := range dres.Items {
						if seen[it.ID] {
							t.Errorf("duplicate %q in result", it.ID)
							return
						}
						seen[it.ID] = true
					}
				case rng.Float64() < 0.2:
					var st Stats
					doJSON(t, "GET", ts.URL+"/stats", nil, &st)
				default:
					id := fmt.Sprintf("w%d-%d", w, i)
					body := ItemPayload{ID: id, Weight: rng.Float64(), Vector: randVec(rng, 3)}
					if code := doJSON(t, "POST", ts.URL+"/items", body, nil); code != http.StatusOK {
						t.Errorf("insert status %d", code)
						return
					}
					myIDs = append(myIDs, id)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	total := 0
	for _, row := range st.Shards {
		total += row.Items
		if row.Pending != 0 {
			t.Fatalf("pending ops after Flush: %+v", row)
		}
		if row.MaintainedSize > 3 {
			t.Fatalf("maintained selection exceeds target: %+v", row)
		}
	}
	if total != st.Items {
		t.Fatalf("stats disagree: shard sum %d vs items %d", total, st.Items)
	}
	if st.Query.Count == 0 || st.Mutation.Count == 0 {
		t.Fatalf("latency recorders empty: %+v", st)
	}
}

// TestServerMonotoneUnderInserts asserts the serving invariant end to end:
// with a fixed k and an insert-only workload, the exact query objective
// never decreases.
func TestServerMonotoneUnderInserts(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3, Lambda: 0.6, MaintainK: 2})
	rng := rand.New(rand.NewSource(9))
	prev := 0.0
	for i := 0; i < 15; i++ {
		body := ItemPayload{ID: fmt.Sprintf("m%d", i), Weight: rng.Float64(), Vector: randVec(rng, 3)}
		if code := doJSON(t, "POST", ts.URL+"/items", body, nil); code != http.StatusOK {
			t.Fatalf("insert %d failed", i)
		}
		var dres DiversifyResponse
		code := doJSON(t, "POST", ts.URL+"/diversify", DiversifyRequest{K: 4, Algorithm: "exact"}, &dres)
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		if dres.Value < prev-1e-9 {
			t.Fatalf("insert %d decreased the exact objective: %g → %g", i, prev, dres.Value)
		}
		prev = dres.Value
	}
}

func TestServerStatsCorpusCounters(t *testing.T) {
	s, err := New(Config{Shards: 2, MaintainK: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1100; i++ {
		id := fmt.Sprintf("c%d", i)
		sh := s.shardFor(id)
		sh.enqueue(op{kind: opUpsert, id: id, weight: rng.Float64(), vector: randVec(rng, 2)})
	}
	if _, err := s.Diversify(context.Background(), DiversifyRequest{K: 8}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Corpus.Items != 1100 {
		t.Fatalf("corpus items = %d after flush, want 1100", st.Corpus.Items)
	}
	if st.Corpus.Queries != 1 {
		t.Fatalf("corpus queries = %d, want 1", st.Corpus.Queries)
	}
	if st.Corpus.Backend != string(BackendF64) {
		t.Fatalf("corpus backend = %q, want default %q", st.Corpus.Backend, BackendF64)
	}
	// New(empty) publishes epoch 1; the flushed batch publishes at least one
	// more, and with no query in flight only the current epoch stays live.
	if st.Corpus.Epoch < 2 {
		t.Fatalf("epoch counter = %d after a flushed batch, want ≥ 2", st.Corpus.Epoch)
	}
	if st.Corpus.EpochsLive != 1 {
		t.Fatalf("epochs live = %d at rest, want 1", st.Corpus.EpochsLive)
	}
	// 1100 items of float64 triangle ≈ 8·n(n-1)/2 bytes; BytesPerItem must
	// reflect it (~4·(n-1) ≈ 4396 bytes/item).
	if st.Corpus.ResidentBytes < 4_000_000 || st.Corpus.BytesPerItem < 4000 {
		t.Fatalf("resident bytes = %d (%.0f/item), implausibly small for n=1100",
			st.Corpus.ResidentBytes, st.Corpus.BytesPerItem)
	}
}

// TestServerRowCacheConfigAndStats pins the Config.RowCache plumbing: the
// bound reaches the vector backend's cache, /stats surfaces it with live
// hit/miss counters and the binary's kernel variant, triangular backends
// report no row cache, and a negative bound is rejected at construction.
func TestServerRowCacheConfigAndStats(t *testing.T) {
	if _, err := New(Config{RowCache: -1}); err == nil {
		t.Fatal("negative RowCache accepted")
	}
	s, err := New(Config{Shards: 1, Parallelism: 1, Backend: BackendVecF32, RowCache: 7})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, s, 60, 4, 5)
	for i := 0; i < 2; i++ { // second query hits the rows the first cached
		if _, err := s.Diversify(context.Background(), DiversifyRequest{K: 6, Algorithm: "greedy"}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Corpus.Kernel != metric.KernelVariant() {
		t.Fatalf("stats kernel %q, want %q", st.Corpus.Kernel, metric.KernelVariant())
	}
	rc := st.Corpus.RowCache
	if rc == nil {
		t.Fatal("vector backend reports no row cache")
	}
	if rc.Rows != 7 {
		t.Fatalf("row cache rows = %d, want configured 7", rc.Rows)
	}
	if rc.Misses == 0 {
		t.Fatalf("row cache misses = 0 after greedy solves (hits=%d)", rc.Hits)
	}

	tri, err := New(Config{Shards: 1, RowCache: 7}) // ignored by triangular backends
	if err != nil {
		t.Fatal(err)
	}
	st = tri.Stats()
	if st.Corpus.RowCache != nil {
		t.Fatalf("triangular backend reports a row cache: %+v", st.Corpus.RowCache)
	}
	if st.Corpus.Kernel == "" {
		t.Fatal("stats kernel empty")
	}
}
