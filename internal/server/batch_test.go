package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"maxsumdiv/internal/core"
)

// TestDispatcherNonMultiLambdaKeys drives the dispatcher deterministically
// with blocking run closures on keys outside the multi-λ greedy family.
// Those keys carry λ, so every run sees one target. A greedy-improved k=3
// query joins a running k=10 call (its trace's prefix answers k=3); a k=20
// query the running trace cannot answer gathers into the next generation
// and runs only after the leader finishes. A localsearch query joins only an
// identical (λ, k); a different k or λ is a key of its own and runs at once.
func TestDispatcherNonMultiLambdaKeys(t *testing.T) {
	const seq = 1
	gi := func(lambda float64, k int) gangKey { return keyFor(seq, core.AlgoGreedyImproved, lambda, k) }
	ls := func(lambda float64, k int) gangKey { return keyFor(seq, core.AlgoLocalSearch, lambda, k) }
	if gi(0.5, 1) == gi(0.5, 2) {
		t.Fatal("greedy-improved k=1 shares a key with k=2, but its best-pair opening only nests from k=2")
	}
	if gi(0.5, 2) != gi(0.5, 20) || gi(0.5, 2) == gi(0.9, 2) {
		t.Fatal("greedy-improved k≥2 keys must differ by λ only")
	}
	if keyFor(seq, core.AlgoGreedy, 0.5, 3) != keyFor(seq, core.AlgoGreedy, 0.9, 7) {
		t.Fatal("greedy keys differ by λ or k, want one gang per epoch")
	}

	d := newDispatcher(8)
	var runMu sync.Mutex
	var runs []core.LambdaTarget // every target a run received, in run order
	ranTargets := func() []core.LambdaTarget {
		runMu.Lock()
		defer runMu.Unlock()
		return append([]core.LambdaTarget(nil), runs...)
	}
	// run answers its one target with ans; with non-nil in/out it signals
	// entry on in and blocks until out closes.
	run := func(ans answer, in, out chan struct{}) runFunc {
		return func(ts []core.LambdaTarget) (map[float64]answer, error) {
			if len(ts) != 1 {
				t.Errorf("non-multi-λ key ran %d targets %v, want 1", len(ts), ts)
			}
			runMu.Lock()
			runs = append(runs, ts...)
			runMu.Unlock()
			if in != nil {
				close(in)
				<-out
			}
			return map[float64]answer{ts[0].Lambda: ans}, nil
		}
	}
	neverRun := func([]core.LambdaTarget) (map[float64]answer, error) {
		t.Error("joiner ran its own solve")
		return nil, nil
	}
	ask := func(key gangKey, lambda float64, k int, r runFunc) chan gangOutcome {
		ch := make(chan gangOutcome, 1)
		go func() {
			a, err := d.dispatch(context.Background(), key, lambda, k, r)
			ch <- gangOutcome{a, err}
		}()
		return ch
	}
	waitGang := func(key gangKey, cond func(g *gang) bool) {
		for {
			d.mu.Lock()
			g := d.gangs[key]
			ok := g != nil && cond(g)
			d.mu.Unlock()
			if ok {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	// greedy-improved: a k=10 leader holds the key.
	tr10, tr20 := &core.GreedyTrace{}, &core.GreedyTrace{}
	giIn, giOut := make(chan struct{}), make(chan struct{})
	giLeader := ask(gi(0.5, 10), 0.5, 10, run(tr10, giIn, giOut))
	<-giIn
	giSmall := ask(gi(0.5, 3), 0.5, 3, neverRun)
	waitGang(gi(0.5, 10), func(g *gang) bool { return g.running.waiters == 2 })
	giBig := ask(gi(0.5, 20), 0.5, 20, run(tr20, nil, nil))
	waitGang(gi(0.5, 10), func(g *gang) bool { return g.next != nil && g.next.waiters == 1 })

	// localsearch: a (0.5, 5) leader holds its key; only the identical
	// query joins it.
	sol5, other := fixedSolution{&core.Solution{}}, fixedSolution{&core.Solution{}}
	lsIn, lsOut := make(chan struct{}), make(chan struct{})
	lsLeader := ask(ls(0.5, 5), 0.5, 5, run(sol5, lsIn, lsOut))
	<-lsIn
	lsSame := ask(ls(0.5, 5), 0.5, 5, neverRun)
	waitGang(ls(0.5, 5), func(g *gang) bool { return g.running.waiters == 2 })
	for _, q := range []core.LambdaTarget{{Lambda: 0.5, K: 4}, {Lambda: 0.9, K: 5}} {
		got, err := d.dispatch(context.Background(), ls(q.Lambda, q.K), q.Lambda, q.K, run(other, nil, nil))
		if err != nil || got != other {
			t.Fatalf("localsearch %v beside a blocked (0.5, 5) leader got (%v, %v), want its own solve", q, got, err)
		}
	}

	// Both leaders are still blocked: the k=20 query has not run.
	wantBefore := []core.LambdaTarget{{Lambda: 0.5, K: 10}, {Lambda: 0.5, K: 5}, {Lambda: 0.5, K: 4}, {Lambda: 0.9, K: 5}}
	if got := ranTargets(); !slices.Equal(got, wantBefore) {
		t.Fatalf("runs before release %v, want %v", got, wantBefore)
	}
	close(giOut)
	close(lsOut)
	for _, c := range []struct {
		name string
		ch   chan gangOutcome
		want answer
	}{
		{"greedy-improved k=10 leader", giLeader, tr10},
		{"greedy-improved k=3 joiner", giSmall, tr10},
		{"greedy-improved k=20 next generation", giBig, tr20},
		{"localsearch leader", lsLeader, sol5},
		{"localsearch identical joiner", lsSame, sol5},
	} {
		if got := <-c.ch; got.err != nil || got.ans != c.want {
			t.Fatalf("%s got (%v, %v), want %v", c.name, got.ans, got.err, c.want)
		}
	}
	if got, want := ranTargets(), append(wantBefore, core.LambdaTarget{Lambda: 0.5, K: 20}); !slices.Equal(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	if co, solo := d.counters(); co != 2 || solo != 5 {
		t.Fatalf("counters (coalesced=%d, solo=%d), want (2, 5)", co, solo)
	}
	d.mu.Lock()
	idle := len(d.gangs) == 0
	d.mu.Unlock()
	if !idle {
		t.Fatal("gang map not cleaned up after every call finished")
	}
}

// TestServerBatchedQueriesMatchSolo is the acceptance pin for the batching
// layer: a storm of concurrent queries against a Batch=8 server returns
// exactly the answers a Batch=1 (coalescing disabled) server gives for the
// same corpus — same member IDs, same objective values — across the
// prefix-nested algorithms, a spread of cardinalities (including
// greedy-improved's k=1 / k=2 nesting boundary), the non-nested solvers, AND
// a spread of λ overrides (the greedy family coalesces across λ; every other
// algorithm keys on λ). Run under -race this also exercises the dispatcher
// for data races.
func TestServerBatchedQueriesMatchSolo(t *testing.T) {
	// One shard so both servers apply the load in identical order and build
	// index-identical corpora — the responses can then be compared verbatim,
	// values included.
	const n, dim = 120, 4
	batched, err := New(Config{Shards: 1, Lambda: 0.7, Parallelism: 1, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := New(Config{Shards: 1, Lambda: 0.7, Parallelism: 1, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, batched, n, dim, 77)
	loadItems(t, solo, n, dim, 77)

	type q struct {
		algo   string
		k      int
		lambda float64 // 0 = use the server default
	}
	request := func(qu q) DiversifyRequest {
		req := DiversifyRequest{K: qu.k, Algorithm: qu.algo}
		if qu.lambda != 0 {
			l := qu.lambda
			req.Lambda = &l
		}
		return req
	}
	var queries []q
	for _, algo := range []string{"greedy", "greedy-improved", "oblivious", "localsearch", "gs"} {
		for _, k := range []int{3, 7, 7, 12, 12, 12, 16} {
			queries = append(queries, q{algo, k, 0})
		}
		// Mixed λ on the same epoch: the greedy family folds these into one
		// fused solve; every other algorithm coalesces per λ.
		for _, lambda := range []float64{0.3, 0.3, 1.1, 2.5} {
			queries = append(queries, q{algo, 9, lambda})
		}
	}
	// greedy-improved nests by prefix only from k=2: k=1 must key apart.
	for _, k := range []int{1, 1, 2, 2} {
		queries = append(queries, q{"greedy-improved", k, 0})
	}
	rand.New(rand.NewSource(7)).Shuffle(len(queries), func(i, j int) {
		queries[i], queries[j] = queries[j], queries[i]
	})

	wantFor := func(s *Server, qu q) *DiversifyResponse {
		resp, err := s.Diversify(context.Background(), request(qu))
		if err != nil {
			t.Fatalf("%s k=%d λ=%g: %v", qu.algo, qu.k, qu.lambda, err)
		}
		return resp
	}
	want := make(map[q]*DiversifyResponse)
	for _, qu := range queries {
		if _, ok := want[qu]; !ok {
			want[qu] = wantFor(solo, qu)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for i, qu := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := batched.Diversify(context.Background(), request(qu))
			if err != nil {
				errs[i] = err
				return
			}
			ref := want[qu]
			if len(got.Items) != len(ref.Items) {
				errs[i] = fmt.Errorf("%s k=%d λ=%g: %d items, solo %d", qu.algo, qu.k, qu.lambda, len(got.Items), len(ref.Items))
				return
			}
			for j := range got.Items {
				if got.Items[j].ID != ref.Items[j].ID {
					errs[i] = fmt.Errorf("%s k=%d λ=%g item %d: id %q, solo %q", qu.algo, qu.k, qu.lambda, j, got.Items[j].ID, ref.Items[j].ID)
					return
				}
			}
			if got.Value != ref.Value || got.Quality != ref.Quality || got.Dispersion != ref.Dispersion {
				errs[i] = fmt.Errorf("%s k=%d λ=%g: values (%v %v %v), solo (%v %v %v)", qu.algo, qu.k, qu.lambda,
					got.Value, got.Quality, got.Dispersion, ref.Value, ref.Quality, ref.Dispersion)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	co, so := batched.corpus.batch.counters()
	if co+so != uint64(len(queries)) {
		t.Fatalf("dispatcher counters %d+%d don't cover the %d queries", co, so, len(queries))
	}
	if co2, _ := solo.corpus.batch.counters(); co2 != 0 {
		t.Fatalf("Batch=1 server coalesced %d queries", co2)
	}
	t.Logf("batched server: %d coalesced, %d solo", co, so)
}

// TestServerStatsReportBatching checks the /stats plumbing end to end: the
// coalesced/solo counters surface under corpus and mutations_shed at the top
// level.
func TestServerStatsReportBatching(t *testing.T) {
	s, err := New(Config{Shards: 1, Lambda: 0.5, Parallelism: 1, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	loadItems(t, s, 30, 3, 5)
	for i := 0; i < 3; i++ {
		if _, err := s.Diversify(context.Background(), DiversifyRequest{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Corpus.QueriesCoalesced+st.Corpus.QueriesSolo != 3 {
		t.Fatalf("stats counters %d+%d, want 3 queries covered",
			st.Corpus.QueriesCoalesced, st.Corpus.QueriesSolo)
	}
	if st.MutationsShed != 0 {
		t.Fatalf("mutations_shed = %d on an unpressured server", st.MutationsShed)
	}
}

// TestServerBackpressureShedsMutations pins the epochs-live bound: with more
// than MaxEpochsLive generations pinned by (simulated) slow readers, mutation
// requests get 429 + Retry-After instead of publishing yet another retained
// epoch; once the readers drain, the same mutation succeeds and the shed
// count is visible in /stats.
func TestServerBackpressureShedsMutations(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, Lambda: 0.5, Parallelism: 1, MaxEpochsLive: 2})
	loadItems(t, s, 10, 3, 3)

	// Pin a chain of generations: hold a reference to each current epoch,
	// then publish a successor, so every pinned epoch stays live.
	rng := rand.New(rand.NewSource(4))
	var pinned []*epoch
	for i := 0; i < 3; i++ {
		pinned = append(pinned, s.corpus.store.pin())
		applyMutation(t, s, fmt.Sprintf("ep-%d", i), rng)
	}
	if live := s.corpus.epochsLive(); live <= int64(s.cfg.MaxEpochsLive) {
		t.Fatalf("test setup: %d epochs live, need > %d", live, s.cfg.MaxEpochsLive)
	}

	body := ItemPayload{ID: "ep-0", Weight: 2, Vector: []float64{1, 0, 0}}
	resp := postJSON(t, ts.URL+"/items", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("mutation under backpressure: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After")
	}
	resp.Body.Close()
	if code := doJSON(t, http.MethodDelete, ts.URL+"/items/ep-1", nil, nil); code != http.StatusTooManyRequests {
		t.Fatalf("delete under backpressure: status %d, want 429", code)
	}
	if shed := s.Stats().MutationsShed; shed != 2 {
		t.Fatalf("mutations_shed = %d, want 2", shed)
	}

	// Readers drain: the pins release, the superseded epochs die, and the
	// same mutation goes through.
	for _, e := range pinned {
		s.corpus.store.unpin(e)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/items", body, nil); code != http.StatusOK {
		t.Fatalf("mutation after drain: status %d, want 200", code)
	}
	if shed := s.Stats().MutationsShed; shed != 2 {
		t.Fatalf("mutations_shed moved to %d after drain", shed)
	}
}

// postJSON issues one POST and returns the raw response (header access).
func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
