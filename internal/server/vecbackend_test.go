package server

import (
	"math"
	"net/http"
	"sort"
	"testing"

	"math/rand"

	"slices"
)

// vecBatch builds a deterministic item batch with dim-dimensional vectors.
func vecBatch(t *testing.T, n, dim int) []ItemPayload {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	batch := make([]ItemPayload, n)
	for i := range batch {
		batch[i] = ItemPayload{ID: itemID(i), Weight: rng.Float64(), Vector: randVec(rng, dim)}
	}
	return batch
}

func TestParseBackendKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want BackendKind
		ok   bool
	}{
		{"", BackendF64, true},
		{"f64", BackendF64, true},
		{"f32", BackendF32, true},
		{"vec-f32", BackendVecF32, true},
		{"vec-int8", BackendVecInt8, true},
		{"float64", "", false},
		{"vec", "", false},
	} {
		got, err := ParseBackendKind(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseBackendKind(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestServerVecBackendMatchesF64 pins the vector-native plug point: the
// vec-f32 corpus must select the same result IDs as the exact f64 corpus
// for the same data and query (distances differ only by one float32
// rounding, far below the gaps between random cosine distances), and the
// int8-quantized corpus must land within its documented tolerance of the
// exact objective.
func TestServerVecBackendMatchesF64(t *testing.T) {
	batch := vecBatch(t, 80, 6)
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
	vec, vecStats := run(Config{Shards: 2, Lambda: 0.5, Parallelism: 1, Backend: BackendVecF32})
	int8res, int8Stats := run(Config{Shards: 2, Lambda: 0.5, Parallelism: 1, Backend: BackendVecInt8})

	if baseStats.Corpus.Backend != string(BackendF64) || vecStats.Corpus.Backend != string(BackendVecF32) ||
		int8Stats.Corpus.Backend != string(BackendVecInt8) {
		t.Fatalf("backend kinds: base %q, vec %q, int8 %q",
			baseStats.Corpus.Backend, vecStats.Corpus.Backend, int8Stats.Corpus.Backend)
	}
	if got, want := idsOf(vec), idsOf(base); !slices.Equal(got, want) {
		t.Fatalf("vec-f32 corpus selected %v, f64 selected %v", got, want)
	}
	if math.Abs(vec.Value-base.Value) > 1e-5*math.Max(1, math.Abs(base.Value)) {
		t.Fatalf("vec-f32 objective diverged past f32 rounding: %g vs %g", vec.Value, base.Value)
	}
	// Quantization moves distances by O(√d/127); the objective sums ~k²/2
	// of them, so allow a generous-but-meaningful band.
	if math.Abs(int8res.Value-base.Value) > 0.05*math.Max(1, math.Abs(base.Value)) {
		t.Fatalf("vec-int8 objective off by more than 5%%: %g vs %g", int8res.Value, base.Value)
	}

	// Residency: n=80 dim=6 — the f64 triangle stores n²/2·8 ≈ 25.6 KB
	// while vec-f32 stores n·d·4 + n·4 ≈ 2.2 KB. The exact ratio drifts
	// with pinned epochs, so pin the order of magnitude only.
	if r := vecStats.Corpus.BytesPerItem / baseStats.Corpus.BytesPerItem; r > 0.25 || r <= 0 {
		t.Fatalf("vec-f32 bytes/item ratio = %.3f of f64, want ≪ 1", r)
	}
	if int8Stats.Corpus.BytesPerItem >= vecStats.Corpus.BytesPerItem {
		t.Fatalf("vec-int8 bytes/item %.1f not below vec-f32 %.1f",
			int8Stats.Corpus.BytesPerItem, vecStats.Corpus.BytesPerItem)
	}
}

// TestServerVecBackendCRUD drives the full mutation surface on a
// vector-native corpus: batch insert, delete, weight upsert and re-query,
// all without a per-shard distance matrix behind them.
func TestServerVecBackendCRUD(t *testing.T) {
	for _, backend := range []BackendKind{BackendVecF32, BackendVecInt8} {
		t.Run(string(backend), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Shards: 3, Lambda: 0.5, Parallelism: 1, Backend: backend})
			batch := vecBatch(t, 24, 5)
			var mut MutationResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/items", batch, &mut); code != http.StatusOK {
				t.Fatalf("insert: status %d", code)
			}
			if mut.Accepted != len(batch) {
				t.Fatalf("accepted %d, want %d", mut.Accepted, len(batch))
			}
			var resp DiversifyResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/diversify", DiversifyRequest{K: 6}, &resp); code != http.StatusOK {
				t.Fatalf("diversify: status %d", code)
			}
			if len(resp.Items) != 6 || resp.N != len(batch) {
				t.Fatalf("diversify = %d items over n=%d", len(resp.Items), resp.N)
			}
			seen := map[string]bool{}
			for _, it := range resp.Items {
				if seen[it.ID] {
					t.Fatalf("duplicate item %q", it.ID)
				}
				seen[it.ID] = true
			}

			victim := batch[3].ID
			if code := doJSON(t, http.MethodDelete, ts.URL+"/items/"+victim, nil, nil); code != http.StatusOK {
				t.Fatalf("delete: status %d", code)
			}
			if code := doJSON(t, http.MethodPost, ts.URL+"/diversify", DiversifyRequest{K: len(batch) - 1}, &resp); code != http.StatusOK {
				t.Fatalf("post-delete diversify: status %d", code)
			}
			if len(resp.Items) != len(batch)-1 {
				t.Fatalf("post-delete query returned %d items, want %d", len(resp.Items), len(batch)-1)
			}
			for _, it := range resp.Items {
				if it.ID == victim {
					t.Fatal("deleted item returned by query")
				}
			}

			// Weight upsert with an unchanged vector lands in place.
			up := ItemPayload{ID: batch[0].ID, Weight: 50, Vector: batch[0].Vector}
			if code := doJSON(t, http.MethodPost, ts.URL+"/items", up, nil); code != http.StatusOK {
				t.Fatalf("upsert: status %d", code)
			}
			doJSON(t, http.MethodPost, ts.URL+"/diversify", DiversifyRequest{K: 1}, &resp)
			if len(resp.Items) != 1 || resp.Items[0].ID != up.ID || resp.Items[0].Weight != 50 {
				t.Fatalf("upserted weight not visible: %+v", resp.Items)
			}
		})
	}
}

// TestServerVecBackendRejections pins the two 400s specific to
// vector-native corpora: the maintained scope (its per-shard sessions do
// not exist) and vectorless items (nothing to store, and accepting one
// would freeze the corpus dimensionless).
func TestServerVecBackendRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Lambda: 0.5, Parallelism: 1, Backend: BackendVecF32})
	if code := doJSON(t, http.MethodPost, ts.URL+"/items", vecBatch(t, 8, 4), nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}

	var errResp struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/diversify",
		DiversifyRequest{K: 3, Scope: "maintained"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("maintained scope: status %d, want 400", code)
	}

	if code := doJSON(t, http.MethodPost, ts.URL+"/items",
		ItemPayload{ID: "novec", Weight: 1}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("vectorless item: status %d, want 400", code)
	}

	// Full scope keeps answering after the rejections.
	var resp DiversifyResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/diversify", DiversifyRequest{K: 3, Scope: "full"}, &resp); code != http.StatusOK {
		t.Fatalf("full scope after rejections: status %d", code)
	}
	if len(resp.Items) != 3 {
		t.Fatalf("full scope returned %d items", len(resp.Items))
	}
}

// TestServerVecBackendResidentBytesLinear pins the whole point of the
// vector-native corpus: resident distance bytes grow as O(n·d), not O(n²).
func TestServerVecBackendResidentBytesLinear(t *testing.T) {
	const n, dim = 256, 8
	s, ts := newTestServer(t, Config{Shards: 2, Lambda: 0.5, Parallelism: 1, Backend: BackendVecF32})
	if code := doJSON(t, http.MethodPost, ts.URL+"/items", vecBatch(t, n, dim), nil); code != http.StatusOK {
		t.Fatalf("insert: status %d", code)
	}
	var resp DiversifyResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/diversify", DiversifyRequest{K: 8}, &resp); code != http.StatusOK {
		t.Fatalf("diversify: status %d", code)
	}
	st := s.Stats()
	if st.Corpus.Items != n {
		t.Fatalf("items = %d, want %d", st.Corpus.Items, n)
	}
	// Build state: n·d·4 vector bytes + n·4 norm bytes. Allow headroom for
	// a pinned epoch and cached solution rows, but stay an order of
	// magnitude under the n²/2·8 a triangular f64 backend would hold.
	linear := int64(n*dim*4 + n*4)
	quadratic := int64(n) * int64(n) / 2 * 8
	if st.Corpus.ResidentBytes < linear {
		t.Fatalf("resident bytes %d below the build floor %d", st.Corpus.ResidentBytes, linear)
	}
	if st.Corpus.ResidentBytes > quadratic/10 {
		t.Fatalf("resident bytes %d not an order of magnitude under quadratic %d — O(n·d) residency lost",
			st.Corpus.ResidentBytes, quadratic)
	}
}

// TestServerVecLocalSearchK1Terminates is the serving-path regression for
// local search on vector corpora with tied weights: a k = 1 localsearch
// query used to swap two tied items back and forth until the request
// context ended, because the swap gain mixed float32-cached rows with an
// unrounded Distance. It must now answer promptly with the greedy pick.
func TestServerVecLocalSearchK1Terminates(t *testing.T) {
	for _, backend := range []BackendKind{BackendVecF32, BackendVecInt8} {
		t.Run(string(backend), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Shards: 2, Lambda: 0.25, Parallelism: 1, Backend: backend})
			rng := rand.New(rand.NewSource(14))
			batch := make([]ItemPayload, 50)
			for i := range batch {
				batch[i] = ItemPayload{ID: itemID(i), Weight: float64(rng.Intn(4)) / 4, Vector: randVec(rng, 16)}
			}
			if code := doJSON(t, http.MethodPost, ts.URL+"/items", batch, nil); code != http.StatusOK {
				t.Fatalf("insert: status %d", code)
			}
			var greedy, ls DiversifyResponse
			if code := doJSON(t, http.MethodPost, ts.URL+"/diversify", DiversifyRequest{K: 1}, &greedy); code != http.StatusOK {
				t.Fatalf("greedy: status %d", code)
			}
			if code := doJSON(t, http.MethodPost, ts.URL+"/diversify", DiversifyRequest{K: 1, Algorithm: "localsearch"}, &ls); code != http.StatusOK {
				t.Fatalf("localsearch: status %d", code)
			}
			if len(ls.Items) != 1 || ls.Items[0].ID != greedy.Items[0].ID {
				t.Fatalf("localsearch answered %+v, want the greedy pick %+v", ls.Items, greedy.Items)
			}
		})
	}
}
