package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"maxsumdiv"
	"maxsumdiv/internal/dataset"
	"maxsumdiv/internal/dynamic"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/server"
)

// Options selects which probes run.
type Options struct {
	// Quick restricts the suite to the entries CI runs on every PR
	// (everything but the large-n probes).
	Quick bool
	// Filter, when non-nil, keeps only probes whose name matches.
	Filter *regexp.Regexp
	// Log, when non-nil, receives one progress line per probe.
	Log io.Writer
}

// Spec is one named probe.
type Spec struct {
	Name  string
	Quick bool // part of the quick suite
	Run   func() (Result, error)
}

// suiteDim is the feature dimension every vector probe uses: large enough
// that a distance evaluation is real work, small enough that the n=10k
// probes stay inside a CI runner's memory and minute budget.
const suiteDim = 32

// Suite returns the probes selected by opts, in fixed order. All solver
// probes run serial (parallelism 1): the suite measures algorithmic cost,
// which must be comparable across machines with different core counts; the
// engine's parallel speedup has its own benchmarks in the root package.
func Suite(opts Options) []Spec {
	all := []Spec{
		calibrationSpec(),

		// The dispatched dot kernels against their scalar reference, in ns
		// per coordinate (one distance row costs n·d of these). On native
		// builds the probes hard-fail unless the dispatched kernel is
		// measurably faster.
		dotKernelSpec("metric/dot_ns_per_coord/f32", true, false),
		dotKernelSpec("metric/dot_ns_per_coord/int8", true, true),

		// End-to-end problem build + greedy solve: the per-query work of
		// the serving layer, on each backend the library offers.
		greedyE2ESpec("greedy/f64-dense/n=1000/k=32/e2e", true, 1000, 32, backendDense64),
		greedyE2ESpec("greedy/f32-dense/n=1000/k=32/e2e", true, 1000, 32, backendDense32),

		// Solve-only on prebuilt backends: the steady-state hot path. The
		// allocs/op here is the zero-allocation regression fence.
		greedySolveSpec("greedy/f64-dense/n=4096/k=32/solve", true, 4096, 32, backendDense64),
		greedySolveSpec("greedy/f32-dense/n=4096/k=32/solve", true, 4096, 32, backendDense32),

		// The best-pair opening on a warm index reads the pair frontier
		// the index built on its first opening, not a C(n,2) scan. The
		// probe fails outright when a warm improved solve costs more than
		// 2× a plain greedy solve on the same index.
		improvedSolveSpec("greedy-improved/f32-dense/n=4096/k=32/solve", true, 4096, 32, backendDense32),

		// The n=10k headline pair: on a fresh index the paper's improved
		// (best-pair) greedy passes over all ~50M pairs to build the pair
		// frontier, so the backend choice dominates. f64-cached
		// is the library's pre-float32 configuration at this scale (lazy
		// striped cache); f32-dense is the blocked flat-row backend.
		improvedE2ESpec("greedy-improved/f64-cached/n=10000/k=64/e2e", true, 10000, 64, backendCached64),
		improvedE2ESpec("greedy-improved/f32-dense/n=10000/k=64/e2e", true, 10000, 64, backendDense32),

		// Large-n trajectory for the lazy cache (full runs only).
		greedyE2ESpec("greedy/f64-cached/n=50000/k=16/e2e", false, 50000, 16, backendCached64),

		localSearchSpec("localsearch/f64-dense/n=1000/k=16/solve", true, 1000, 16, backendDense64),
		localSearchSpec("localsearch/f32-dense/n=1000/k=16/solve", true, 1000, 16, backendDense32),

		dynamicChurnSpec("dynamic/insert-delete/n=2000/p=16", true, 2000, 16),
		dynamicWeightSpec("dynamic/perturb-weight/n=2000/p=16", true, 2000, 16),

		serverQuerySpec("server/query/full/n=2048/k=10", true, "full", 2048, 10),
		serverQuerySpec("server/query/maintained/n=2048/k=8", true, "maintained", 2048, 8),

		// The rebuild-free serving contract: per-query λ rotation over one
		// long-lived corpus backend. The probe fails outright — not just
		// regresses — if any query constructs a distance backend.
		serverQueryReuseSpec("server/query_reuse/n=2048/k=10", true, 2048, 10),

		// The epoch corpus's memory claim, per backend: resident distance
		// bytes per item after an insert-only load (f32 must come out at
		// half of f64). ns/op is the per-insert write-path cost.
		corpusBytesSpec("server/corpus_bytes_per_item/f64/n=4096", true, server.BackendF64, 4096, 0),
		corpusBytesSpec("server/corpus_bytes_per_item/f32/n=4096", true, server.BackendF32, 4096, 0),

		// The vector-native backends at a scale no triangular backend could
		// reach in CI memory (n=100k under f64 rows would be 40 GB): the
		// probe hard-fails if bytes/item picks up any n term — the cap is a
		// small multiple of the O(d) per-item formula, independent of n.
		corpusBytesSpec("server/corpus_bytes_per_item/vec-f32/n=100000", true,
			server.BackendVecF32, 100000, 4*(suiteDim*4+4)),
		corpusBytesSpec("server/corpus_bytes_per_item/vec-int8/n=100000", true,
			server.BackendVecInt8, 100000, 4*(suiteDim+8)),

		// The candidate-generation accuracy/latency trade at the same scale:
		// pre-filtered greedy must keep ≥ 95% of the exact-scan objective
		// (hard failure below the bar) while scanning a fraction of the
		// ground set.
		candidateAccuracySpec("solve/candidate_gen_accuracy/n=100000/k=16", true, 100000, 16),

		// The writer-stall probe: mutation latency sampled while slow
		// full-scope local-search queries run continuously. Under the old
		// RWMutex corpus its p99 tracked the slow-query duration; on the
		// epoch corpus it must stay flat.
		mutationUnderLoadSpec("server/mutation_under_query_load/n=2048", true, 2048),

		// The batching dispatcher's throughput claim: 8 concurrent identical
		// full-scope queries must finish ≥ 1.5× faster on a coalescing server
		// than on one solving each solo (hard failure, not a regression).
		batchedThroughputSpec("server/batched_query_throughput", true, 2048, 16),

		// The multi-λ gang's claim: concurrent greedy queries differing only
		// in λ must coalesce into one fused solve (queries_coalesced > 0 is a
		// hard failure otherwise); the solo-vs-batched speedup lands in Extra.
		multiLambdaThroughputSpec("server/multi_lambda_batch_throughput", true, 2048, 16),

		// The incremental-compaction claim: per-flush compaction work under a
		// vector-rewrite storm stays bounded (hard failure on any flush doing
		// more than one remove step + one append step of migration rows);
		// p50/p99/max mutation latency land in Extra.
		flushChurnSpec("server/flush_p99_under_churn", true, 256, 600),

		// The cluster's scatter-gather query path over real HTTP members:
		// coordinator p50/p99, plus the composable-core-set fence — the
		// merged answer must keep ≥ 95% of the single-node exact-scan greedy
		// objective (hard failure below the bar).
		clusterScatterGatherSpec("cluster/scatter_gather_query/n=4096/members=3", true, 4096, 3, 32),

		// Declarative workloads in the gate: the steady-mixed scenario runs
		// in process with its invariants armed (a violation fails the probe,
		// not just regresses it), and the open-vs-closed probe fences the
		// engine's coordinated-omission-free latency accounting.
		scenarioSmokeSpec("scenario/steady-mixed/inproc", "steady-mixed", true),
		scenarioOpenVsClosedSpec("scenario/open_vs_closed/query", true),
	}
	out := all[:0:0]
	for _, s := range all {
		if opts.Quick && !s.Quick {
			continue
		}
		if opts.Filter != nil && !opts.Filter.MatchString(s.Name) && s.Name != CalibrationName {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Run executes the selected probes and assembles the report.
func Run(opts Options) (*Report, error) {
	rep := newReport(opts.Quick)
	for _, s := range Suite(opts) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "running %s ...\n", s.Name)
		}
		start := time.Now()
		res, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", s.Name, err)
		}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "  %s: %.3g ms/op, %d allocs/op (%d iters, %.1fs)\n",
				s.Name, res.NsPerOp/1e6, res.AllocsPerOp, res.Iterations, time.Since(start).Seconds())
		}
		rep.Results = append(rep.Results, res)
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

var sinkF float64 // defeats dead-code elimination in probes

// calibrationSpec is the fixed pure-CPU loop Compare normalizes by: ~2M
// floating-point operations per op, no memory traffic, no allocation.
func calibrationSpec() Spec {
	return benchSpec(CalibrationName, true, func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			x := 1.0
			for j := 0; j < 1<<20; j++ {
				x = x*1.0000000001 + float64(j&7)*0.5
			}
			sinkF = x
		}
		return nil
	})
}

// benchSpec wraps a testing.Benchmark body that may fail.
func benchSpec(name string, quick bool, body func(b *testing.B) error) Spec {
	return Spec{Name: name, Quick: quick, Run: func() (Result, error) {
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if err := body(b); err != nil {
				runErr = err
				b.SkipNow()
			}
		})
		if runErr != nil {
			return Result{}, runErr
		}
		return resultOf(name, r), nil
	}}
}

// backend selects the distance representation a probe builds its problem on.
type backend int

const (
	backendDense64  backend = iota // eager float64 matrix (Materialize)
	backendDense32                 // blocked flat-row float32 (WithFloat32)
	backendCached64                // lazy striped float64 cache (WithLazyDistances)
)

// suiteItems builds the deterministic vector corpus every solver probe uses.
func suiteItems(n int, seed int64) []maxsumdiv.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]maxsumdiv.Item, n)
	for i := range items {
		vec := make([]float64, suiteDim)
		for k := range vec {
			vec[k] = rng.Float64()
		}
		items[i] = maxsumdiv.Item{ID: fmt.Sprintf("it%06d", i), Weight: rng.Float64(), Vector: vec}
	}
	return items
}

// buildIndex constructs the probe's index on the chosen backend (cosine
// distance, the serving layer's geometry).
func buildIndex(items []maxsumdiv.Item, be backend) (*maxsumdiv.Index, error) {
	opts := []maxsumdiv.Option{maxsumdiv.WithLambda(0.5), maxsumdiv.WithCosineDistance()}
	switch be {
	case backendDense32:
		opts = append(opts, maxsumdiv.WithFloat32())
	case backendCached64:
		opts = append(opts, maxsumdiv.WithLazyDistances())
	}
	return maxsumdiv.NewIndex(items, opts...)
}

// greedyE2ESpec measures one full cold query: index construction (including
// the distance backend build) plus a serial greedy solve.
func greedyE2ESpec(name string, quick bool, n, k int, be backend) Spec {
	return benchSpec(name, quick, func(b *testing.B) error {
		items := suiteItems(n, int64(n))
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := buildIndex(items, be)
			if err != nil {
				return err
			}
			sol, err := ix.Query(ctx, maxsumdiv.Query{K: k, Parallelism: 1})
			if err != nil {
				return err
			}
			sinkF = sol.Value
		}
		return nil
	})
}

// improvedE2ESpec is greedyE2ESpec with the paper's Table 3 best-pair
// opening, whose first use on a fresh index passes over all C(n,2) pairs
// — the workload where the distance backend dominates end to end.
func improvedE2ESpec(name string, quick bool, n, k int, be backend) Spec {
	return benchSpec(name, quick, func(b *testing.B) error {
		items := suiteItems(n, int64(n))
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix, err := buildIndex(items, be)
			if err != nil {
				return err
			}
			sol, err := ix.Query(ctx, maxsumdiv.Query{
				K: k, Algorithm: maxsumdiv.AlgorithmGreedyImproved, Parallelism: 1})
			if err != nil {
				return err
			}
			sinkF = sol.Value
		}
		return nil
	})
}

// greedySolveSpec measures the solve alone on a prebuilt index: the
// steady-state hot path whose allocs/op the suite fences at a small
// constant.
func greedySolveSpec(name string, quick bool, n, k int, be backend) Spec {
	return benchSpec(name, quick, func(b *testing.B) error {
		ix, err := buildIndex(suiteItems(n, int64(n)), be)
		if err != nil {
			return err
		}
		ctx := context.Background()
		q := maxsumdiv.Query{K: k, Parallelism: 1}
		if _, err := ix.Query(ctx, q); err != nil {
			return err // warm scratch pools before measuring steady state
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := ix.Query(ctx, q)
			if err != nil {
				return err
			}
			sinkF = sol.Value
		}
		return nil
	})
}

// improvedSolveSpec measures the Table 3 improved greedy on a prebuilt
// index whose pair frontier is already built. Before measuring it checks,
// best of several runs each, that a warm improved solve costs at most
// maxRatio× a plain greedy solve of the same k: the opening is then a
// frontier read, not a pair scan. The ratio lands in Extra.
func improvedSolveSpec(name string, quick bool, n, k int, be backend) Spec {
	const maxRatio, runs = 2.0, 5
	return benchSpec(name, quick, func(b *testing.B) error {
		ix, err := buildIndex(suiteItems(n, int64(n)), be)
		if err != nil {
			return err
		}
		ctx := context.Background()
		improved := maxsumdiv.Query{K: k, Algorithm: maxsumdiv.AlgorithmGreedyImproved, Parallelism: 1}
		plain := maxsumdiv.Query{K: k, Parallelism: 1}
		fastest := func(q maxsumdiv.Query) (time.Duration, error) {
			best := time.Duration(math.MaxInt64)
			for r := 0; r < runs; r++ {
				t0 := time.Now()
				if _, err := ix.Query(ctx, q); err != nil {
					return 0, err
				}
				best = min(best, time.Since(t0))
			}
			return best, nil
		}
		if _, err := ix.Query(ctx, improved); err != nil {
			return err // builds the frontier and warms the scratch pools
		}
		plainTime, err := fastest(plain)
		if err != nil {
			return err
		}
		improvedTime, err := fastest(improved)
		if err != nil {
			return err
		}
		ratio := float64(improvedTime) / float64(plainTime)
		if ratio > maxRatio {
			return fmt.Errorf("warm improved greedy %v vs plain greedy %v at n=%d k=%d: %.2f×, bar is %.0f×",
				improvedTime, plainTime, n, k, ratio, maxRatio)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := ix.Query(ctx, improved)
			if err != nil {
				return err
			}
			sinkF = sol.Value
		}
		b.ReportMetric(ratio, "improved_over_greedy")
		return nil
	})
}

// localSearchSpec measures a bounded local-search polish from a prebuilt
// greedy start under |S| ≤ k.
func localSearchSpec(name string, quick bool, n, k int, be backend) Spec {
	return benchSpec(name, quick, func(b *testing.B) error {
		ix, err := buildIndex(suiteItems(n, int64(n)), be)
		if err != nil {
			return err
		}
		ctx := context.Background()
		init, err := ix.Query(ctx, maxsumdiv.Query{K: k, Parallelism: 1})
		if err != nil {
			return err
		}
		q := maxsumdiv.Query{
			K: k, Algorithm: maxsumdiv.AlgorithmLocalSearch,
			Init: init.Indices, MaxSwaps: 4, Parallelism: 1,
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := ix.Query(ctx, q)
			if err != nil {
				return err
			}
			sinkF = sol.Value
		}
		return nil
	})
}

// dynamicChurnSpec measures fully dynamic update time: one insert and one
// delete per op, each followed by the state rebuild and one Section 6
// oblivious update — the per-mutation cost of a live session.
func dynamicChurnSpec(name string, quick bool, n, p int) Spec {
	return benchSpec(name, quick, func(b *testing.B) error {
		rng := rand.New(rand.NewSource(77))
		inst := dataset.Synthetic(n, rng)
		sess, err := dynamic.NewSession(inst.Weights, inst.Dist, 0.2, nil)
		if err != nil {
			return err
		}
		if err := sess.SetTarget(p); err != nil {
			return err
		}
		_ = sess.Members() // realize the initial greedy fill
		dists := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range dists {
				dists[j] = 1 + rng.Float64() // the paper's [1,2] regime
			}
			idx, err := sess.InsertElement(rng.Float64(), dists)
			if err != nil {
				return err
			}
			sess.ObliviousUpdate()
			if _, err := sess.DeleteElement(idx); err != nil {
				return err
			}
			sess.ObliviousUpdate()
		}
		return nil
	})
}

// dynamicWeightSpec measures a Section 6 weight perturbation plus its
// theorem-prescribed maintenance.
func dynamicWeightSpec(name string, quick bool, n, p int) Spec {
	return benchSpec(name, quick, func(b *testing.B) error {
		rng := rand.New(rand.NewSource(78))
		inst := dataset.Synthetic(n, rng)
		sess, err := dynamic.NewSession(inst.Weights, inst.Dist, 0.2, nil)
		if err != nil {
			return err
		}
		if err := sess.SetTarget(p); err != nil {
			return err
		}
		_ = sess.Members()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prev := sess.Value()
			pert, err := sess.SetWeight(rng.Intn(n), rng.Float64())
			if err != nil {
				return err
			}
			if _, err := sess.Maintain(pert, prev); err != nil {
				// Out-of-regime decreases (δ ≥ w) are legitimate here;
				// fall back to one oblivious update like the server does.
				sess.ObliviousUpdate()
			}
		}
		return nil
	})
}

// serverQuerySpec drives POST /diversify through the in-process handler
// (no network) against a loaded corpus and reports mean latency plus
// p50/p99 in Extra.
func serverQuerySpec(name string, quick bool, scope string, n, k int) Spec {
	return serverQueryProbe(name, quick, scope, n, k, nil, false)
}

// serverQueryReuseSpec is the serving redesign's headline probe: queries
// rotate the per-request λ override — the parameter the old API baked into
// the problem — and the probe verifies via the metric package's
// construction counter that the whole burst builds zero distance backends.
func serverQueryReuseSpec(name string, quick bool, n, k int) Spec {
	return serverQueryProbe(name, quick, "full", n, k, []float64{0, 0.25, 0.5, 1, 2}, true)
}

// inProcPoster adapts a server handler into the POST helper every server
// probe shares: requests go straight through ServeHTTP, no network.
func inProcPoster(h http.Handler) func(path string, body []byte) error {
	return func(path string, body []byte) error {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		return nil
	}
}

// loadServerItems bulk-inserts the deterministic suite corpus through the
// handler in flush-threshold-sized batches.
func loadServerItems(post func(string, []byte) error, items []maxsumdiv.Item) error {
	const batch = 256
	for lo := 0; lo < len(items); lo += batch {
		hi := min(lo+batch, len(items))
		payload := make([]server.ItemPayload, 0, hi-lo)
		for _, it := range items[lo:hi] {
			payload = append(payload, server.ItemPayload{ID: it.ID, Weight: it.Weight, Vector: it.Vector})
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		if err := post("/items", body); err != nil {
			return err
		}
	}
	return nil
}

// corpusBytesSpec loads an insert-only corpus onto the named backend and
// reports its steady-state memory footprint: Extra["bytes_per_item"] is the
// /stats figure operators size deployments by, and ns/op is the mean
// per-insert cost of the write path (distance row + epoch bookkeeping).
// maxBytesPerItem > 0 turns the figure into a hard bound: exceeding it
// fails the probe outright — the fence vector-native backends use to prove
// their residency carries no n term.
func corpusBytesSpec(name string, quick bool, backend server.BackendKind, n int, maxBytesPerItem float64) Spec {
	return Spec{Name: name, Quick: quick, Run: func() (Result, error) {
		srv, err := server.New(server.Config{Shards: 4, Lambda: 0.5, Parallelism: 1, Backend: backend})
		if err != nil {
			return Result{}, err
		}
		post := inProcPoster(srv.Handler())
		items := suiteItems(n, int64(n))
		start := time.Now()
		if err := loadServerItems(post, items); err != nil {
			return Result{}, err
		}
		if err := srv.Flush(); err != nil {
			return Result{}, err
		}
		elapsed := time.Since(start)
		st := srv.Stats()
		if st.Corpus.Items != n {
			return Result{}, fmt.Errorf("corpus holds %d items after load, want %d", st.Corpus.Items, n)
		}
		if got := st.Corpus.Backend; got != string(backend) {
			return Result{}, fmt.Errorf("corpus backend %q, want %q", got, backend)
		}
		if maxBytesPerItem > 0 && st.Corpus.BytesPerItem > maxBytesPerItem {
			return Result{}, fmt.Errorf("corpus holds %.1f bytes/item on backend %s at n=%d, cap %.1f — residency is not O(n·d)",
				st.Corpus.BytesPerItem, backend, n, maxBytesPerItem)
		}
		return Result{
			Name:         name,
			Iterations:   n,
			NsPerOp:      float64(elapsed.Nanoseconds()) / float64(n),
			ApproxAllocs: true, // not measured; memory is the metric here
			Extra: map[string]float64{
				"bytes_per_item": st.Corpus.BytesPerItem,
				"resident_bytes": float64(st.Corpus.ResidentBytes),
			},
		}, nil
	}}
}

// candidateAccuracySpec pins the candidate-generation contract at scale:
// on an n-item vector-native index, greedy restricted to the sketch-selected
// candidate set must retain at least 95% of the exact full-scan greedy
// objective, and a warm pre-filtered query (sketch already built) must run
// at least twice as fast as the exact scan — hard failures below either
// bar, not regressions. ns/op is the cold first pre-filtered query, sketch
// build included; the warm pre-filtered and exact-scan latencies (each the
// fastest of several runs) and their ratio land in Extra.
func candidateAccuracySpec(name string, quick bool, n, k int) Spec {
	const minAccuracy, minSpeedup, runs = 0.95, 2.0, 5
	return Spec{Name: name, Quick: quick, Run: func() (Result, error) {
		items := suiteItems(n, int64(n))
		vecs := make([][]float64, n)
		weights := make([]float64, n)
		for i, it := range items {
			vecs[i] = it.Vector
			weights[i] = it.Weight
		}
		ix, err := maxsumdiv.NewVectorIndex(vecs, weights, maxsumdiv.WithLambda(0.5))
		if err != nil {
			return Result{}, err
		}
		ctx := context.Background()
		exactQ := maxsumdiv.Query{K: k, Parallelism: 1}
		preQ := maxsumdiv.Query{K: k, Candidates: maxsumdiv.CandidatesPreFiltered, Parallelism: 1}
		timed := func(q maxsumdiv.Query) (*maxsumdiv.Solution, time.Duration, error) {
			t0 := time.Now()
			sol, err := ix.Query(ctx, q)
			return sol, time.Since(t0), err
		}
		exact, exactTime, err := timed(exactQ)
		if err != nil {
			return Result{}, err
		}
		pre, coldTime, err := timed(preQ)
		if err != nil {
			return Result{}, err
		}
		warmTime := time.Duration(math.MaxInt64)
		for r := 0; r < runs; r++ {
			_, d, err := timed(exactQ)
			if err != nil {
				return Result{}, err
			}
			exactTime = min(exactTime, d)
			_, d, err = timed(preQ)
			if err != nil {
				return Result{}, err
			}
			warmTime = min(warmTime, d)
		}
		if exact.Value <= 0 {
			return Result{}, fmt.Errorf("exact greedy objective %g, want > 0", exact.Value)
		}
		accuracy := pre.Value / exact.Value
		if accuracy < minAccuracy {
			return Result{}, fmt.Errorf("pre-filtered greedy kept %.4f of the exact objective at n=%d k=%d, bar is %.2f",
				accuracy, n, k, minAccuracy)
		}
		speedup := float64(exactTime) / float64(warmTime)
		if speedup < minSpeedup {
			return Result{}, fmt.Errorf("warm pre-filtered query %v vs exact scan %v at n=%d k=%d: %.2f× faster, bar is %.0f×",
				warmTime, exactTime, n, k, speedup, minSpeedup)
		}
		return Result{
			Name:         name,
			Iterations:   1,
			NsPerOp:      float64(coldTime.Nanoseconds()),
			ApproxAllocs: true,
			Extra: map[string]float64{
				"accuracy":       accuracy,
				"exact_scan_ns":  float64(exactTime.Nanoseconds()),
				"prefiltered_ns": float64(warmTime.Nanoseconds()),
				"speedup":        speedup,
			},
		}, nil
	}}
}

// mutationUnderLoadSpec samples single-item mutation latency (enqueue →
// inline flush → epoch publish, via FlushThreshold 1) while background
// goroutines keep slow full-scope local-search queries permanently in
// flight. Mean plus p50/p99 land in the report; a p99 anywhere near the
// slow-query duration means mutations queued behind a reader again.
func mutationUnderLoadSpec(name string, quick bool, n int) Spec {
	const samples = 150
	const slowQueries = 2
	return Spec{Name: name, Quick: quick, Run: func() (Result, error) {
		srv, err := server.New(server.Config{Shards: 4, Lambda: 0.5, Parallelism: 2, FlushThreshold: 1})
		if err != nil {
			return Result{}, err
		}
		post := inProcPoster(srv.Handler())
		items := suiteItems(n, int64(n))
		if err := loadServerItems(post, items); err != nil {
			return Result{}, err
		}
		queryBody, err := json.Marshal(server.DiversifyRequest{K: 64, Algorithm: "localsearch"})
		if err != nil {
			return Result{}, err
		}
		if err := post("/diversify", queryBody); err != nil {
			return Result{}, err // warm before loading the background loops
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		queryErrs := make(chan error, slowQueries)
		for g := 0; g < slowQueries; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := post("/diversify", queryBody); err != nil {
						queryErrs <- err
						return
					}
				}
			}()
		}
		rng := rand.New(rand.NewSource(99))
		lat := make([]time.Duration, samples)
		start := time.Now()
		for i := range lat {
			vec := make([]float64, suiteDim)
			for k := range vec {
				vec[k] = rng.Float64()
			}
			body, err := json.Marshal(server.ItemPayload{
				ID: fmt.Sprintf("mut%04d", i), Weight: rng.Float64(), Vector: vec,
			})
			if err != nil {
				close(stop)
				wg.Wait()
				return Result{}, err
			}
			t0 := time.Now()
			if err := post("/items", body); err != nil {
				close(stop)
				wg.Wait()
				return Result{}, err
			}
			lat[i] = time.Since(t0)
		}
		total := time.Since(start)
		close(stop)
		wg.Wait()
		select {
		case err := <-queryErrs:
			return Result{}, fmt.Errorf("background slow query failed: %w", err)
		default:
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(q float64) float64 {
			return float64(lat[int(q*float64(len(lat)-1))].Nanoseconds())
		}
		return Result{
			Name:         name,
			Iterations:   samples,
			NsPerOp:      float64(total.Nanoseconds()) / samples,
			ApproxAllocs: true,
			Extra: map[string]float64{
				"p50_ns": pct(0.50),
				"p99_ns": pct(0.99),
			},
		}, nil
	}}
}

// batchedThroughputSpec races two identically-loaded single-shard servers:
// one with the dispatcher on (Batch = the fan-out) and one with it off
// (Batch 1). Each round releases `fanout` goroutines from a barrier into the
// same full-scope greedy query; on the batched server the first query leads
// the solve and the rest join it, on the solo server every query scans for
// itself. The probe hard-fails unless the batched server clears the 1.5×
// aggregate-throughput bar and both servers return identical result IDs.
//
// Parallelism is 2, not the suite's usual 1: a serial solve runs inline with
// no scheduling points, so on a single-core runner the joiners could never
// reach the dispatcher before the leader finished. The two-worker pool's
// fork/join per greedy pass yields the processor, which is what makes the
// coalescing window real regardless of core count — and the reported number
// is a ratio between two servers configured identically, so the extra worker
// cancels out.
func batchedThroughputSpec(name string, quick bool, n, k int) Spec {
	const fanout = 8
	const rounds = 6
	return Spec{Name: name, Quick: quick, Run: func() (Result, error) {
		mkServer := func(batch int) (*server.Server, func(string, []byte) error, error) {
			srv, err := server.New(server.Config{Shards: 1, Lambda: 0.5, Parallelism: 2, Batch: batch})
			if err != nil {
				return nil, nil, err
			}
			post := inProcPoster(srv.Handler())
			if err := loadServerItems(post, suiteItems(n, int64(n))); err != nil {
				return nil, nil, err
			}
			return srv, post, nil
		}
		batched, postB, err := mkServer(fanout)
		if err != nil {
			return Result{}, err
		}
		solo, postS, err := mkServer(1)
		if err != nil {
			return Result{}, err
		}
		body, err := json.Marshal(server.DiversifyRequest{K: k})
		if err != nil {
			return Result{}, err
		}

		// Identical corpora (one shard, same load order) must give identical
		// answers; the coalesced path is pinned bit-exact by the server tests,
		// this cross-checks the two probe servers before timing them.
		respOf := func(h http.Handler) (server.DiversifyResponse, error) {
			req := httptest.NewRequest(http.MethodPost, "/diversify", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			var resp server.DiversifyResponse
			if rec.Code != http.StatusOK {
				return resp, fmt.Errorf("warm query: status %d: %s", rec.Code, rec.Body.String())
			}
			err := json.Unmarshal(rec.Body.Bytes(), &resp)
			return resp, err
		}
		rb, err := respOf(batched.Handler())
		if err != nil {
			return Result{}, err
		}
		rs, err := respOf(solo.Handler())
		if err != nil {
			return Result{}, err
		}
		if len(rb.Items) != len(rs.Items) {
			return Result{}, fmt.Errorf("batched returned %d items, solo %d", len(rb.Items), len(rs.Items))
		}
		for i := range rb.Items {
			if rb.Items[i].ID != rs.Items[i].ID {
				return Result{}, fmt.Errorf("item %d: batched id %q, solo id %q", i, rb.Items[i].ID, rs.Items[i].ID)
			}
		}

		storm := func(post func(string, []byte) error) (time.Duration, error) {
			var total time.Duration
			for r := 0; r < rounds; r++ {
				start := make(chan struct{})
				errs := make([]error, fanout)
				var wg sync.WaitGroup
				for g := 0; g < fanout; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						errs[g] = post("/diversify", body)
					}()
				}
				t0 := time.Now()
				close(start)
				wg.Wait()
				total += time.Since(t0)
				for _, err := range errs {
					if err != nil {
						return 0, err
					}
				}
			}
			return total, nil
		}
		soloTime, err := storm(postS)
		if err != nil {
			return Result{}, err
		}
		batchedTime, err := storm(postB)
		if err != nil {
			return Result{}, err
		}
		speedup := float64(soloTime) / float64(batchedTime)
		if speedup < 1.5 {
			return Result{}, fmt.Errorf("batched throughput %.2fx solo for %d concurrent identical queries, want ≥ 1.5x (solo %v, batched %v)",
				speedup, fanout, soloTime, batchedTime)
		}
		co, so := batched.Stats().Corpus.QueriesCoalesced, batched.Stats().Corpus.QueriesSolo
		return Result{
			Name:         name,
			Iterations:   rounds * fanout,
			NsPerOp:      float64(batchedTime.Nanoseconds()) / float64(rounds*fanout),
			ApproxAllocs: true,
			Extra: map[string]float64{
				"speedup":           speedup,
				"queries_coalesced": float64(co),
				"queries_solo":      float64(so),
			},
		}, nil
	}}
}

// flushChurnSpec hammers one server with vector rewrites — the delete +
// reinsert path that used to trigger the stop-the-world O(n²) Tri.compact
// inside a flush — at FlushThreshold 1 so every mutation flushes and
// publishes inline. The hard check is deterministic, not a wall-clock
// heuristic: metric.CompactionRows must advance by at most one removal step
// plus one append step per mutation (the incremental bound), and the storm
// must actually drive compaction for the fence to mean anything. Mutation
// latency lands in Extra as p50/p99/max.
func flushChurnSpec(name string, quick bool, n, mutations int) Spec {
	return Spec{Name: name, Quick: quick, Run: func() (Result, error) {
		srv, err := server.New(server.Config{Shards: 1, Lambda: 0.5, Parallelism: 1, FlushThreshold: 1})
		if err != nil {
			return Result{}, err
		}
		post := inProcPoster(srv.Handler())
		items := suiteItems(n, int64(n))
		if err := loadServerItems(post, items); err != nil {
			return Result{}, err
		}
		rng := rand.New(rand.NewSource(41))
		// One removal may patch a migrated row and run one migration step;
		// the reinsert runs another step.
		bound := int64(2*metric.TriCompactStep + 1)
		var maxStep int64
		lat := make([]time.Duration, mutations)
		start := time.Now()
		for i := range lat {
			it := items[rng.Intn(n)]
			vec := make([]float64, suiteDim)
			for j := range vec {
				vec[j] = rng.Float64()
			}
			body, err := json.Marshal(server.ItemPayload{ID: it.ID, Weight: it.Weight, Vector: vec})
			if err != nil {
				return Result{}, err
			}
			before := metric.CompactionRows()
			t0 := time.Now()
			if err := post("/items", body); err != nil {
				return Result{}, err
			}
			lat[i] = time.Since(t0)
			if step := metric.CompactionRows() - before; step > maxStep {
				maxStep = step
			}
		}
		total := time.Since(start)
		if maxStep > bound {
			return Result{}, fmt.Errorf("a flush built %d compaction rows, incremental bound is %d", maxStep, bound)
		}
		if maxStep == 0 {
			return Result{}, fmt.Errorf("%d rewrites on n=%d never triggered compaction; the probe is not exercising it", mutations, n)
		}
		st := srv.Stats()
		if st.Corpus.Items != n {
			return Result{}, fmt.Errorf("corpus holds %d items after the rewrite storm, want %d", st.Corpus.Items, n)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(q float64) float64 {
			return float64(lat[int(q*float64(len(lat)-1))].Nanoseconds())
		}
		return Result{
			Name:         name,
			Iterations:   mutations,
			NsPerOp:      float64(total.Nanoseconds()) / float64(mutations),
			ApproxAllocs: true,
			Extra: map[string]float64{
				"p50_ns":              pct(0.50),
				"p99_ns":              pct(0.99),
				"max_ns":              float64(lat[len(lat)-1].Nanoseconds()),
				"max_compaction_rows": float64(maxStep),
			},
		}, nil
	}}
}

// serverQueryProbe is the shared body: load a corpus, warm it, then sample
// query latency; lambdas (when non-nil) rotates the per-request override,
// and checkConstructions turns a backend build during the sample window
// into a hard probe failure.
func serverQueryProbe(name string, quick bool, scope string, n, k int, lambdas []float64, checkConstructions bool) Spec {
	const samples = 120
	return Spec{Name: name, Quick: quick, Run: func() (Result, error) {
		srv, err := server.New(server.Config{Shards: 4, Lambda: 0.5, MaintainK: 8, Parallelism: 1})
		if err != nil {
			return Result{}, err
		}
		post := inProcPoster(srv.Handler())
		if err := loadServerItems(post, suiteItems(n, int64(n))); err != nil {
			return Result{}, err
		}
		// Pre-marshal every request body (one per λ variant) so the sampled
		// window measures the server, not the client's JSON encoder.
		bodies := make([][]byte, 1)
		bodies[0], err = json.Marshal(server.DiversifyRequest{K: k, Scope: scope})
		if err != nil {
			return Result{}, err
		}
		if len(lambdas) > 0 {
			bodies = bodies[:0]
			for i := range lambdas {
				b, err := json.Marshal(server.DiversifyRequest{K: k, Scope: scope, Lambda: &lambdas[i]})
				if err != nil {
					return Result{}, err
				}
				bodies = append(bodies, b)
			}
		}
		for i := 0; i < 3; i++ { // warm: flush queues, fill caches
			if err := post("/diversify", bodies[i%len(bodies)]); err != nil {
				return Result{}, err
			}
		}
		builds0 := metric.Constructions()
		lat := make([]time.Duration, samples)
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := range lat {
			t0 := time.Now()
			if err := post("/diversify", bodies[i%len(bodies)]); err != nil {
				return Result{}, err
			}
			lat[i] = time.Since(t0)
		}
		total := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if checkConstructions {
			if builds := metric.Constructions() - builds0; builds != 0 {
				return Result{}, fmt.Errorf("query burst constructed %d distance backends, want 0", builds)
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(q float64) float64 {
			return float64(lat[int(q*float64(len(lat)-1))].Nanoseconds())
		}
		return Result{
			Name:         name,
			Iterations:   samples,
			NsPerOp:      float64(total.Nanoseconds()) / samples,
			AllocsPerOp:  int64(ms1.Mallocs-ms0.Mallocs) / samples,
			BytesPerOp:   int64(ms1.TotalAlloc-ms0.TotalAlloc) / samples,
			ApproxAllocs: true, // MemStats delta, not per-run accounting
			Extra: map[string]float64{
				"p50_ns": pct(0.50),
				"p99_ns": pct(0.99),
			},
		}, nil
	}}
}
