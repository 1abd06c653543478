package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"maxsumdiv"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/scenario"
	"maxsumdiv/internal/server"
)

// serveRead: greedy queries over a vector corpus with a trickle of writes.
// The ≤50 rows the λ rotation touches fit the 64-row cache, but every write
// publishes an epoch whose cache starts cold.
var serveRead = &openWorkload{
	name:   "serve-read",
	dim:    64,
	corpus: 20000,
	rate:   80,
	streams: func(tpl string, rate float64) []scenario.StreamSpec {
		return []scenario.StreamSpec{{
			Name:    "read",
			Mix:     mix(90, 4, 3, 3),
			Arrival: scenario.ArrivalSpec{Mode: scenario.ArrivalOpen, Rate: rate, MaxInFlight: 2},
			Items:   scenario.ItemSpec{IDTemplate: tpl},
			Query:   scenario.QuerySpec{K: verifyK, Algorithm: "greedy", Scope: "full", Lambdas: lambdaRuns},
		}}
	},
	start: startServer(server.BackendVecF32),
}

// lambdaRuns rotates over lambdas, asking each value for five queries in a
// row, as a client paging through one trade-off would. With one value per
// query more than half the queries are the first for their λ since the last
// write — cache-cold — and the median query flips between the cold and the
// warm latency from run to run; in runs of five the median is a warm query.
var lambdaRuns = func() []float64 {
	var out []float64
	for _, l := range lambdas {
		for i := 0; i < 5; i++ {
			out = append(out, l)
		}
	}
	return out
}()

// churnWindow is serve-churn's sliding window: the stream keeps about this
// many of its own items live, deleting the oldest as it inserts, so the
// corpus stays near corpus+churnWindow items.
const churnWindow = 128

// serveChurn: a write-heavy mix on the float32 triangle backend, a third of
// the queries over the per-shard maintained selections. Time goes to
// flush-on-read, Tri append and compaction, epoch publishing, and per-shard
// dynamic maintenance; there is no row cache to help. The scopes are split
// 2:1 rather than evenly: a maintained-scope query costs a fraction of a
// full one, and with an even split the median query sits on the step
// between the two.
var serveChurn = &openWorkload{
	name:   "serve-churn",
	dim:    32,
	corpus: 4096 - churnWindow,
	rate:   500,
	streams: func(tpl string, rate float64) []scenario.StreamSpec {
		return []scenario.StreamSpec{{
			Name:    "churn",
			Mix:     mix(20, 34, 0, 36),
			Arrival: scenario.ArrivalSpec{Mode: scenario.ArrivalOpen, Rate: rate * 0.9, MaxInFlight: 1},
			Items:   scenario.ItemSpec{IDTemplate: tpl},
			Churn:   scenario.ChurnSpec{Pattern: scenario.ChurnSlidingWindow, Window: churnWindow},
			Query:   scenario.QuerySpec{K: verifyK, Algorithm: "greedy", Scope: "full"},
		}, {
			Name:    "maintained",
			Mix:     mix(100, 0, 0, 0),
			Arrival: scenario.ArrivalSpec{Mode: scenario.ArrivalOpen, Rate: rate * 0.1, MaxInFlight: 1},
			Items:   scenario.ItemSpec{IDTemplate: tpl},
			Query:   scenario.QuerySpec{K: verifyK, Algorithm: "greedy", Scope: "maintained"},
		}}
	},
	start: startServer(server.BackendF32),
}

// mix builds an op table from query/insert/update/delete weights.
func mix(query, insert, update, del int) []scenario.OpWeight {
	return []scenario.OpWeight{
		{Op: scenario.OpQuery, Weight: query},
		{Op: scenario.OpInsert, Weight: insert},
		{Op: scenario.OpUpdate, Weight: update},
		{Op: scenario.OpDelete, Weight: del},
	}
}

// serveSystem is one in-process server driven through its HTTP handler.
type serveSystem struct {
	srv     *server.Server
	h       http.Handler
	plain   *scenario.HandlerTarget
	backend server.BackendKind
	tgt     *tracedServer // the traced target, once built
}

func startServer(backend server.BackendKind) func() (system, error) {
	return func() (system, error) {
		srv, err := server.New(server.Config{Backend: backend, Lambda: 1})
		if err != nil {
			return nil, err
		}
		h := srv.Handler()
		return &serveSystem{srv: srv, h: h, plain: scenario.NewHandlerTarget(h), backend: backend}, nil
	}
}

func (s *serveSystem) target() scenario.Target { return s.plain }

func (s *serveSystem) traced(tr *tracer) scenario.Target {
	s.tgt = &tracedServer{srv: s.srv, h: s.h, tr: tr}
	return s.tgt
}

func (s *serveSystem) close() {}

func (s *serveSystem) counters(context.Context) (map[string]float64, error) {
	c := make(map[string]float64)
	addServerStats(c, s.srv.Stats())
	return c, nil
}

// addServerStats folds one server's /stats counters into c.
func addServerStats(c map[string]float64, st server.Stats) {
	c["queries"] += float64(st.Corpus.Queries)
	c["coalesced"] += float64(st.Corpus.QueriesCoalesced)
	c["solo"] += float64(st.Corpus.QueriesSolo)
	c["epochs"] += float64(st.Corpus.Epoch)
	c["shed"] += float64(st.MutationsShed)
	c["items"] += float64(st.Corpus.Items)
	c["resident_bytes"] += float64(st.Corpus.ResidentBytes)
	if rc := st.Corpus.RowCache; rc != nil {
		c["row_hits"] += float64(rc.Hits)
		c["row_misses"] += float64(rc.Misses)
	}
	for _, sh := range st.Shards {
		c["swaps"] += float64(sh.Swaps)
	}
}

func (s *serveSystem) bytesPerItem(context.Context) (float64, error) {
	return s.srv.Stats().Corpus.BytesPerItem, nil
}

// verify checks the server's greedy answers against an exact-scan greedy
// over the mirror on the same distance representation: they must agree id
// for id.
func (s *serveSystem) verify(ctx context.Context, t scenario.Target, items []scenario.Item, rep *report) (float64, error) {
	ix, err := referenceIndex(items, s.backend)
	if err != nil {
		return 0, err
	}
	live := byID(items)
	minRatio := 0.0
	for i, l := range lambdas {
		got, ref, err := greedyPair(ctx, t, ix, l)
		rep.attempted++
		if err != nil {
			rep.fail("λ=%g: %v", l, err)
			continue
		}
		if err := sameIDs(got, ref); err != nil {
			rep.fail("λ=%g: server greedy differs from exact-scan greedy over the mirror: %v", l, err)
		}
		r, err := objectiveRatio(live, got, ref, l)
		if err != nil {
			rep.fail("λ=%g: %v", l, err)
			continue
		}
		if i == 0 || r < minRatio {
			minRatio = r
		}
	}
	return minRatio, nil
}

// referenceIndex builds the exact-scan reference over the mirror on the
// distance representation the server stores, so greedy picks can be
// compared id for id: float32 vectors for vec-f32, float32-rounded float64
// cosine distances for the f32 triangle.
func referenceIndex(items []scenario.Item, backend server.BackendKind) (*maxsumdiv.Index, error) {
	lib := make([]maxsumdiv.Item, len(items))
	for i, it := range items {
		lib[i] = maxsumdiv.Item{ID: it.ID, Weight: it.Weight, Vector: it.Vector}
	}
	switch backend {
	case server.BackendVecF32:
		return maxsumdiv.NewIndex(lib, maxsumdiv.WithVectorBackendF32())
	case server.BackendF32:
		return maxsumdiv.NewIndex(lib, maxsumdiv.WithFloat32(), maxsumdiv.WithDistanceFunc(func(i, j int) float64 {
			return float64(float32(metric.CosineDist(lib[i].Vector, lib[j].Vector)))
		}))
	}
	return nil, fmt.Errorf("no reference for backend %s", backend)
}

// greedyPair runs one greedy query at λ through t and on the reference.
func greedyPair(ctx context.Context, t scenario.Target, ix *maxsumdiv.Index, lambda float64) (got, ref []string, err error) {
	l := lambda
	res, err := t.Query(ctx, scenario.QueryParams{K: verifyK, Algorithm: "greedy", Scope: "full", Lambda: &l})
	if err != nil {
		return nil, nil, err
	}
	sol, err := ix.Query(ctx, maxsumdiv.Query{K: verifyK, Lambda: &l, ClampK: true})
	if err != nil {
		return nil, nil, err
	}
	return res.IDs, sol.IDs, nil
}

// objectiveRatio scores both selections over the mirror and divides.
func objectiveRatio(live map[string]scenario.Item, got, ref []string, lambda float64) (float64, error) {
	g, err := objective(live, got, lambda)
	if err != nil {
		return 0, err
	}
	r, err := objective(live, ref, lambda)
	if err != nil {
		return 0, fmt.Errorf("reference: %w", err)
	}
	return ratio(g, r), nil
}

func (s *serveSystem) layers(tr *tracer, d map[string]float64, rep *report) {
	t := s.tgt
	muts := float64(len(tr.named("server.mutation")))
	pctMS := func(name string, q float64) float64 { return ms(percentile(tr.durations(name), q)) }
	rep.set("server.flush_ms_p50", pctMS("server.flush", 0.5), "")
	rep.set("server.flush_ms_p99", pctMS("server.flush", 0.99), "")
	rep.set("server.solve_ms_p50", pctMS("server.solve", 0.5), "full scope")
	rep.set("server.solve_ms_p99", pctMS("server.solve", 0.99), "full scope")
	rep.set("server.maintained_query_ms_p50", pctMS("server.solve_maintained", 0.5), "")
	rep.set("server.decode_us_p50", us(percentile(tr.durations("server.decode"), 0.5)), "")
	rep.set("server.encode_us_p50", us(percentile(tr.durations("server.encode"), 0.5)), "")
	rep.set("server.mutation_us_p50", us(percentile(tr.durations("server.mutation"), 0.5)), "")
	rep.set("server.mutation_us_p99", us(percentile(tr.durations("server.mutation"), 0.99)), "")
	rep.setRatio("server.inline_flush_ratio", float64(t.inline.Load()), muts, "acks with an empty queue", "mutations")
	rep.setRatio("server.epochs_per_query", d["epochs"], d["queries"], "epochs published", "queries")
	rep.set("server.epochs_live_max", float64(t.epochsLiveMax.Load()), "sampled before each query")
	rep.setRatio("server.coalesced_ratio", d["coalesced"], d["coalesced"]+d["solo"], "coalesced", "coalesced+solo")
	rep.set("server.mutations_shed", d["shed"], "")
	coverage(tr, rep, "server.query", "server.decode", "server.flush", "server.solve", "server.solve_maintained", "server.encode")
	rep.setRatio("metric.row_cache_hit_ratio", d["row_hits"], d["row_hits"]+d["row_misses"], "hits", "lookups")
	rep.setRatio("metric.row_misses_per_query", d["row_misses"], d["queries"], "misses", "queries")
	rep.setRatio("dynamic.swaps_per_mutation", d["swaps"], muts, "swaps", "mutations")
}

// coverage sets server.trace_coverage — the share of root span time the
// named children account for — and the per-request unaccounted time.
func coverage(tr *tracer, rep *report, root string, children ...string) {
	covered := make(map[uint64]time.Duration)
	for _, c := range children {
		for id, d := range tr.childTotals(c) {
			covered[id] += d
		}
	}
	var sumRoot, sumCovered time.Duration
	var gaps []time.Duration
	for _, s := range tr.named(root) {
		sumRoot += s.dur()
		sumCovered += covered[s.ID]
		gaps = append(gaps, s.dur()-covered[s.ID])
	}
	rep.set("server.trace_coverage", ratio(float64(sumCovered), float64(sumRoot)),
		"children %v / %s %v", sumCovered.Round(time.Microsecond), root, sumRoot.Round(time.Microsecond))
	rep.set("server.unaccounted_ms_p50", ms(percentile(gaps, 0.5)), "")
	if c := ratio(float64(sumCovered), float64(sumRoot)); c < 0.9 {
		rep.logf("note: trace coverage %.3f is below 0.9; the unaccounted time is reported above", c)
	}
}

// tracedServer is the server's request path assembled from its public
// functions — DecodeDiversify, Flush, Diversify and the JSON encoding the
// handler does — with a span around each call. Mutations go through the
// handler whole.
type tracedServer struct {
	srv           *server.Server
	h             http.Handler
	tr            *tracer
	inline        atomic.Int64
	epochsLiveMax atomic.Int64
}

func (t *tracedServer) mutate(ctx context.Context, method, path string, body []byte) error {
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	sp := t.tr.start("server.mutation", 0)
	t.h.ServeHTTP(rec, req)
	t.tr.finish(sp)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
	}
	var resp server.MutationResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("decode mutation reply: %w", err)
	}
	// A mutation is acknowledged with pending 0 when its shard queue reached
	// the flush threshold and was applied inline — or, rarely, when a query
	// flushed the shard between the enqueue and the ack.
	if resp.Pending == 0 {
		t.inline.Add(1)
	}
	return nil
}

func (t *tracedServer) Insert(ctx context.Context, items []scenario.Item) error {
	payload := make([]server.ItemPayload, len(items))
	for i, it := range items {
		payload[i] = server.ItemPayload{ID: it.ID, Weight: it.Weight, Vector: it.Vector}
	}
	var body []byte
	var err error
	if len(payload) == 1 {
		body, err = json.Marshal(payload[0])
	} else {
		body, err = json.Marshal(payload)
	}
	if err != nil {
		return err
	}
	return t.mutate(ctx, http.MethodPost, "/items", body)
}

func (t *tracedServer) Delete(ctx context.Context, id string) error {
	return t.mutate(ctx, http.MethodDelete, "/items/"+id, nil)
}

func (t *tracedServer) Query(ctx context.Context, q scenario.QueryParams) (scenario.QueryResult, error) {
	live := t.srv.Stats().Corpus.EpochsLive
	for cur := t.epochsLiveMax.Load(); live > cur && !t.epochsLiveMax.CompareAndSwap(cur, live); cur = t.epochsLiveMax.Load() {
	}
	body, err := json.Marshal(server.DiversifyRequest{K: q.K, Algorithm: q.Algorithm, Scope: q.Scope, Lambda: q.Lambda})
	if err != nil {
		return scenario.QueryResult{}, err
	}
	root := t.tr.start("server.query", 0)
	sp := t.tr.start("server.decode", root.id)
	req, err := server.DecodeDiversify(bytes.NewReader(body))
	t.tr.finish(sp)
	if err != nil {
		return scenario.QueryResult{}, err
	}
	sp = t.tr.start("server.flush", root.id)
	err = t.srv.Flush()
	t.tr.finish(sp)
	if err != nil {
		return scenario.QueryResult{}, err
	}
	name := "server.solve"
	if req.Scope == "maintained" {
		name = "server.solve_maintained"
	}
	sp = t.tr.start(name, root.id)
	resp, err := t.srv.Diversify(ctx, req)
	t.tr.finish(sp)
	if err != nil {
		return scenario.QueryResult{}, err
	}
	var buf bytes.Buffer
	sp = t.tr.start("server.encode", root.id)
	err = json.NewEncoder(&buf).Encode(resp)
	t.tr.finish(sp)
	t.tr.finish(root)
	if err != nil {
		return scenario.QueryResult{}, err
	}
	// Decode the reply as a client would, outside the handler's time.
	var out server.DiversifyResponse
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		return scenario.QueryResult{}, err
	}
	res := scenario.QueryResult{Value: out.Value, N: out.N, IDs: make([]string, len(out.Items))}
	for i, it := range out.Items {
		res.IDs[i] = it.ID
	}
	return res, nil
}
