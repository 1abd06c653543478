package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"maxsumdiv/internal/cluster"
	"maxsumdiv/internal/scenario"
	"maxsumdiv/internal/server"
)

// clusterMembers is the member count of cluster-scatter.
const clusterMembers = 3

// minMergeRatio is the objective share of single-node greedy a cluster
// answer must keep; the repository's own cluster probe holds the same bar.
const minMergeRatio = 0.95

// clusterScatter: a coordinator over vec-f32 members behind real loopback
// HTTP listeners. A query costs the scatter, the slowest member, and the
// coordinator's union re-solve.
var clusterScatter = &openWorkload{
	name:   "cluster-scatter",
	dim:    64,
	corpus: 12288,
	rate:   80,
	streams: func(tpl string, rate float64) []scenario.StreamSpec {
		return []scenario.StreamSpec{{
			Name:    "scatter",
			Mix:     mix(85, 6, 5, 4),
			Arrival: scenario.ArrivalSpec{Mode: scenario.ArrivalOpen, Rate: rate, MaxInFlight: 2},
			Items:   scenario.ItemSpec{IDTemplate: tpl},
			Query:   scenario.QuerySpec{K: verifyK, Algorithm: "greedy", Scope: "full", Lambdas: lambdaRuns},
		}}
	},
	start: startCluster,
}

// clusterSystem is the coordinator's handler in process and its members on
// httptest listeners. The coordinator's member client and the members'
// handlers carry timing hooks that record only while a tracer is set.
type clusterSystem struct {
	members   []*server.Server
	listeners []*httptest.Server
	transport *http.Transport
	h         http.Handler
	plain     *scenario.HandlerTarget
	tracing   atomic.Pointer[tracer]
	tgt       *tracedCluster
}

func startCluster() (system, error) {
	c := &clusterSystem{transport: http.DefaultTransport.(*http.Transport).Clone()}
	mcs := make([]cluster.MemberConfig, clusterMembers)
	for i := range mcs {
		srv, err := server.New(server.Config{Backend: server.BackendVecF32, Lambda: 1})
		if err != nil {
			c.close()
			return nil, err
		}
		ts := httptest.NewServer(c.memberHandler(srv.Handler()))
		c.members = append(c.members, srv)
		c.listeners = append(c.listeners, ts)
		mcs[i] = cluster.MemberConfig{Name: fmt.Sprintf("m%d", i), URL: ts.URL}
	}
	coord, err := cluster.New(cluster.Config{
		Members:    mcs,
		HTTPClient: &http.Client{Transport: &timingTransport{base: c.transport, tracing: &c.tracing}},
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.h = coord.Handler()
	c.plain = scenario.NewHandlerTarget(c.h)
	return c, nil
}

func (c *clusterSystem) close() {
	for _, ts := range c.listeners {
		ts.Close()
	}
	c.transport.CloseIdleConnections()
}

func (c *clusterSystem) target() scenario.Target { return c.plain }

func (c *clusterSystem) traced(tr *tracer) scenario.Target {
	c.tracing.Store(tr)
	c.tgt = &tracedCluster{h: c.h, tr: tr}
	return c.tgt
}

// memberHandler times each member's /diversify handling while tracing.
func (c *clusterSystem) memberHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := c.tracing.Load()
		if tr == nil || r.URL.Path != "/diversify" {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.start("cluster.member_server", 0)
		h.ServeHTTP(w, r)
		tr.finish(sp)
	})
}

// get reads one of the coordinator's JSON admin views.
func (c *clusterSystem) get(ctx context.Context, path string, out any) error {
	req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

func (c *clusterSystem) counters(ctx context.Context) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, srv := range c.members {
		addServerStats(out, srv.Stats())
	}
	var st cluster.Stats
	if err := c.get(ctx, "/stats", &st); err != nil {
		return nil, err
	}
	out["coord_queries"] = float64(st.Queries)
	out["partial"] = float64(st.PartialQueries)
	var view struct {
		Members []cluster.MemberInfo `json:"members"`
	}
	if err := c.get(ctx, "/cluster/members", &view); err != nil {
		return nil, err
	}
	for _, m := range view.Members {
		out["member_requests"] += float64(m.Requests)
		out["member_retries"] += float64(m.Retries)
	}
	return out, nil
}

// bytesPerItem is the members' summed resident bytes over their summed
// items, as the coordinator's /stats reports them.
func (c *clusterSystem) bytesPerItem(ctx context.Context) (float64, error) {
	var st cluster.Stats
	if err := c.get(ctx, "/stats", &st); err != nil {
		return 0, err
	}
	var bytes, items float64
	for _, m := range st.Members {
		bytes += float64(m.ResidentBytes)
		items += float64(m.Items)
	}
	return ratio(bytes, items), nil
}

// verify scores each cluster answer against single-node exact-scan greedy
// over the mirror. A cluster answer may differ from it (the union re-solve
// is an approximation), but it must be live, duplicate-free, full-sized and
// keep minMergeRatio of the single-node objective.
func (c *clusterSystem) verify(ctx context.Context, t scenario.Target, items []scenario.Item, rep *report) (float64, error) {
	ix, err := referenceIndex(items, server.BackendVecF32)
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
		r, err := objectiveRatio(live, got, ref, l)
		switch {
		case err != nil:
			rep.fail("λ=%g: %v", l, err)
			continue
		case len(got) != len(ref):
			rep.fail("λ=%g: cluster returned %d items, want %d", l, len(got), len(ref))
		case r < minMergeRatio:
			rep.fail("λ=%g: cluster kept %.4f of single-node greedy, bar %.2f", l, r, minMergeRatio)
		}
		if i == 0 || r < minRatio {
			minRatio = r
		}
	}
	return minRatio, nil
}

func (c *clusterSystem) layers(tr *tracer, d map[string]float64, rep *report) {
	calls := tr.named("cluster.member_call")
	var callDurs []time.Duration
	var replyBytes int64
	for _, s := range calls {
		callDurs = append(callDurs, s.dur())
		replyBytes += s.Bytes
	}
	slowest := tr.childMax("cluster.member_call")
	var slow, self []time.Duration
	for _, q := range tr.named("cluster.query") {
		slow = append(slow, slowest[q.ID])
		self = append(self, q.dur()-slowest[q.ID])
	}
	rep.set("cluster.member_call_ms_p50", ms(percentile(callDurs, 0.5)), "%d member /diversify calls", len(calls))
	rep.set("cluster.member_call_ms_p99", ms(percentile(callDurs, 0.99)), "")
	rep.set("cluster.slowest_member_ms_p50", ms(percentile(slow, 0.5)), "")
	rep.set("cluster.member_server_ms_p50", ms(percentile(tr.durations("cluster.member_server"), 0.5)), "")
	rep.set("cluster.coordinator_self_ms_p50", ms(percentile(self, 0.5)), "query minus its slowest member call")
	rep.set("cluster.member_reply_kb", ratio(float64(replyBytes)/1024, float64(len(calls))), "%d bytes over %d replies", replyBytes, len(calls))
	unions, queries := c.tgt.unionTotals()
	rep.setRatio("cluster.union_size", float64(unions), float64(queries), "candidates", "queries")
	rep.setRatio("cluster.partial_ratio", d["partial"], d["coord_queries"], "partial", "queries")
	rep.setRatio("cluster.retry_ratio", d["member_retries"], d["member_requests"], "retries", "member requests")
	rep.setRatio("metric.row_cache_hit_ratio", d["row_hits"], d["row_hits"]+d["row_misses"], "member hits", "lookups")
	rep.setRatio("metric.row_misses_per_query", d["row_misses"], d["coord_queries"], "member misses", "queries")
	rep.setRatio("server.coalesced_ratio", d["coalesced"], d["coalesced"]+d["solo"], "member coalesced", "coalesced+solo")
	rep.set("server.mutations_shed", d["shed"], "members")
	rep.logf("note: the coordinator builds one distance backend per query for its union re-solve, so metric.constructions_per_query reads 1 here by design")
}

// tracedCluster drives the coordinator's handler with a root span per
// request; the span id rides the request context to the member calls.
type tracedCluster struct {
	h  http.Handler
	tr *tracer

	mu      sync.Mutex
	unions  int64
	queries int64
}

func (t *tracedCluster) unionTotals() (int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.unions, t.queries
}

func (t *tracedCluster) serve(ctx context.Context, name, method, path string, body []byte) *httptest.ResponseRecorder {
	sp := t.tr.start(name, 0)
	req := httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(withSpan(ctx, sp.id))
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	t.tr.finish(sp)
	return rec
}

func (t *tracedCluster) Insert(ctx context.Context, items []scenario.Item) error {
	payload := make([]server.ItemPayload, len(items))
	for i, it := range items {
		payload[i] = server.ItemPayload{ID: it.ID, Weight: it.Weight, Vector: it.Vector}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if rec := t.serve(ctx, "cluster.mutation", http.MethodPost, "/items", body); rec.Code != http.StatusOK {
		return fmt.Errorf("POST /items: status %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

func (t *tracedCluster) Delete(ctx context.Context, id string) error {
	if rec := t.serve(ctx, "cluster.mutation", http.MethodDelete, "/items/"+id, nil); rec.Code != http.StatusOK {
		return fmt.Errorf("DELETE /items/%s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	return nil
}

func (t *tracedCluster) Query(ctx context.Context, q scenario.QueryParams) (scenario.QueryResult, error) {
	body, err := json.Marshal(server.DiversifyRequest{K: q.K, Algorithm: q.Algorithm, Scope: q.Scope, Lambda: q.Lambda})
	if err != nil {
		return scenario.QueryResult{}, err
	}
	rec := t.serve(ctx, "cluster.query", http.MethodPost, "/diversify", body)
	if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
		return scenario.QueryResult{}, fmt.Errorf("POST /diversify: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp cluster.DiversifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return scenario.QueryResult{}, err
	}
	union := 0
	for _, m := range resp.Members {
		union += m.Candidates
	}
	t.mu.Lock()
	t.unions += int64(union)
	t.queries++
	t.mu.Unlock()
	res := scenario.QueryResult{Value: resp.Value, N: resp.N, Partial: resp.Partial, IDs: make([]string, len(resp.Items))}
	for i, it := range resp.Items {
		res.IDs[i] = it.ID
	}
	return res, nil
}

// timingTransport is the coordinator's member-call transport: while a
// tracer is set it records each /diversify call from request to the end of
// its reply body, parented to the coordinator request that caused it.
type timingTransport struct {
	base    http.RoundTripper
	tracing *atomic.Pointer[tracer]
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tracing.Load()
	if tr == nil || req.URL.Path != "/diversify" {
		return t.base.RoundTrip(req)
	}
	sp := tr.start("cluster.member_call", spanFrom(req.Context()))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.finish(sp)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, tr: tr, sp: sp}
	return resp, nil
}

// timedBody closes its span when the reply has been read and closed.
type timedBody struct {
	io.ReadCloser
	tr   *tracer
	sp   open
	n    int64
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.tr.finishBytes(b.sp, b.n) })
	return err
}
