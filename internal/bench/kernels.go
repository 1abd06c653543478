package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/server"
)

// dotKernelDim is the vector length the dot-kernel probes measure at: long
// enough that the unrolled lanes dominate the ragged tail, short enough
// that the rotating working set stays in L1/L2 — the regime the cosine row
// kernels actually run in (a d-long dot per stored vector).
const dotKernelDim = 1024

// dotKernelPairs is how many vector pairs each probe rotates through, so
// the measurement is not a single cache-resident pair.
const dotKernelPairs = 64

// dotKernelSliceCalls is how many dot calls one timed slice makes — ~1 ms
// of work at d=1024, the interleaving grain of the paired measurement.
const dotKernelSliceCalls = 2048

var sinkF32 float32 // defeats dead-code elimination in the kernel probes

// dotKernelSpec measures the dispatched dot kernel in ns per coordinate —
// the unit that transfers directly to cosine row cost (one distance row is
// n·d coordinates) — and records the scalar reference alongside it. On a
// native build (metric.KernelVariant() != "purego") the f32 probe
// hard-fails unless the dispatched kernel beats the scalar reference by
// ≥ 5%: the unrolled lanes exist to be measurably faster, not just
// different. The int8 dispatch deliberately binds the scalar kernel
// (integer adds have no latency chain to unroll against — see
// metric.dotI8Unrolled), so its probe only guards against the dispatched
// path ever measuring > 5% slower than the reference.
func dotKernelSpec(name string, quick, int8Kernel bool) Spec {
	return Spec{Name: name, Quick: quick, Run: func() (Result, error) {
		rng := rand.New(rand.NewSource(1024))
		var f32s [][]float32
		var i8s [][]int8
		for p := 0; p < dotKernelPairs; p++ {
			if int8Kernel {
				v := make([]int8, dotKernelDim)
				for k := range v {
					v[k] = int8(rng.Intn(256) - 128)
				}
				i8s = append(i8s, v)
			} else {
				v := make([]float32, dotKernelDim)
				for k := range v {
					v[k] = float32(rng.NormFloat64())
				}
				f32s = append(f32s, v)
			}
		}
		// Both sides run the SAME slice loop, calling their kernel through a
		// func-typed variable: the indirect call (≈2 ns on a ≈600 ns dot,
		// identical on both sides) costs nothing at this grain, and it stops
		// the compiler from inlining one side's kernel into a differently
		// laid-out closure — separate closures measure persistent
		// double-digit "differences" between bitwise-identical kernels here,
		// pure code-placement luck.
		var dispSlice, scalSlice func() float32
		if int8Kernel {
			slice := func(dot func(a, b []int8) float32) func() float32 {
				return func() float32 {
					var s float32
					for i := 0; i < dotKernelSliceCalls; i++ {
						s += dot(i8s[i%dotKernelPairs], i8s[(i+1)%dotKernelPairs])
					}
					return s
				}
			}
			dispSlice, scalSlice = slice(metric.DotI8), slice(metric.DotI8Scalar)
		} else {
			slice := func(dot func(a, b []float32) float32) func() float32 {
				return func() float32 {
					var s float32
					for i := 0; i < dotKernelSliceCalls; i++ {
						s += dot(f32s[i%dotKernelPairs], f32s[(i+1)%dotKernelPairs])
					}
					return s
				}
			}
			dispSlice, scalSlice = slice(metric.DotF32), slice(metric.DotF32Scalar)
		}
		// Paired ms-scale slices, alternating sides, keeping each side's
		// fastest slice: this machine class shows double-digit-percent
		// run-to-run noise, far above the 5% band being judged. Alternating
		// at fine grain exposes both kernels to the same interference, and
		// the per-side minimum lands in the quiet windows (the same
		// one-sided-noise estimator MergeMin uses across suite runs).
		sinkF32 += dispSlice() + scalSlice() // warm up code and data
		const reps = 60
		dispNs, scalNs := math.Inf(1), math.Inf(1)
		perCoord := func(d time.Duration) float64 {
			return float64(d.Nanoseconds()) / float64(dotKernelSliceCalls) / dotKernelDim
		}
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			sinkF32 += dispSlice()
			dispNs = math.Min(dispNs, perCoord(time.Since(t0)))
			t0 = time.Now()
			sinkF32 += scalSlice()
			scalNs = math.Min(scalNs, perCoord(time.Since(t0)))
		}
		speedup := scalNs / dispNs
		floor := 1.05
		if int8Kernel || metric.KernelVariant() == "purego" {
			floor = 0.95
		}
		if speedup < floor {
			return Result{}, fmt.Errorf("dispatched kernel (%s) only %.2fx the scalar reference (%.3f vs %.3f ns/coord), want ≥ %.2fx",
				metric.KernelVariant(), speedup, dispNs, scalNs, floor)
		}
		if allocs := testing.AllocsPerRun(4, func() { sinkF32 += dispSlice() }); allocs != 0 {
			return Result{}, fmt.Errorf("dispatched kernel slice allocated %.0f times, want 0", allocs)
		}
		return Result{
			Name:       name,
			Iterations: reps * dotKernelSliceCalls,
			NsPerOp:    dispNs,
			Extra: map[string]float64{
				"scalar_ns_per_coord": scalNs,
				"speedup":             speedup,
			},
		}, nil
	}}
}

// multiLambdaThroughputSpec is the multi-λ gang's throughput probe: each
// round releases `fanout` goroutines from a barrier into full-scope greedy
// queries that differ ONLY in λ. On the batched server the greedy family's
// gang folds the λs into shared scan rounds; the solo server (Batch 1) solves
// every λ separately. The hard check is the coalescing itself: the batched
// server must report queries_coalesced > 0 after the storm — with a fanout
// this wide some members always land in a gathering generation. The
// throughput ratio lands in Extra (its magnitude depends on how long the λ
// trajectories agree, so it informs rather than gates).
func multiLambdaThroughputSpec(name string, quick bool, n, k int) Spec {
	const fanout = 8
	const rounds = 8
	lambdas := func() []float64 {
		out := make([]float64, fanout)
		for i := range out {
			out[i] = 0.25 * float64(i+1)
		}
		return out
	}()
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
		batched, postB, err := mkServer(2 * fanout)
		if err != nil {
			return Result{}, err
		}
		solo, postS, err := mkServer(1)
		if err != nil {
			return Result{}, err
		}
		bodies := make([][]byte, fanout)
		for i, lambda := range lambdas {
			l := lambda
			if bodies[i], err = json.Marshal(server.DiversifyRequest{K: k, Lambda: &l}); err != nil {
				return Result{}, err
			}
		}

		// Per-λ answers must be identical on the two identically-loaded
		// servers before any timing means anything (the gang's bit-identity
		// is pinned by the server tests; this cross-checks the probe setup).
		respOf := func(h http.Handler, body []byte) (server.DiversifyResponse, error) {
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
		for i, body := range bodies {
			rb, err := respOf(batched.Handler(), body)
			if err != nil {
				return Result{}, err
			}
			rs, err := respOf(solo.Handler(), body)
			if err != nil {
				return Result{}, err
			}
			if len(rb.Items) != len(rs.Items) {
				return Result{}, fmt.Errorf("λ=%g: batched returned %d items, solo %d", lambdas[i], len(rb.Items), len(rs.Items))
			}
			for j := range rb.Items {
				if rb.Items[j].ID != rs.Items[j].ID {
					return Result{}, fmt.Errorf("λ=%g item %d: batched id %q, solo id %q", lambdas[i], j, rb.Items[j].ID, rs.Items[j].ID)
				}
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
						errs[g] = post("/diversify", bodies[g])
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
		co, so := batched.Stats().Corpus.QueriesCoalesced, batched.Stats().Corpus.QueriesSolo
		if co == 0 {
			return Result{}, fmt.Errorf("mixed-λ storm (%d rounds × %d λs) coalesced no queries (solo=%d) — the multi-λ gang never fused",
				rounds, fanout, so)
		}
		return Result{
			Name:         name,
			Iterations:   rounds * fanout,
			NsPerOp:      float64(batchedTime.Nanoseconds()) / float64(rounds*fanout),
			ApproxAllocs: true,
			Extra: map[string]float64{
				"speedup":           float64(soloTime) / float64(batchedTime),
				"queries_coalesced": float64(co),
				"queries_solo":      float64(so),
			},
		}, nil
	}}
}
