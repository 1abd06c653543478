package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"maxsumdiv"
	"maxsumdiv/internal/candidate"
	"maxsumdiv/internal/core"
	"maxsumdiv/internal/engine"
	"maxsumdiv/internal/matroid"
	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/scenario"
	"maxsumdiv/internal/setfunc"
)

// library-batch sizes: a small materialized float32 index for the
// pair-scanning solvers, a large vector index for the scan-scope choice.
const (
	libSmallN = 2000
	libLargeN = 100000
	libDim    = 64
	libK      = 10
	libParts  = 10 // partition-matroid parts over the small index, cap 1 each
	// libSubN is the sub-instance local search is checked against the exact
	// matroid optimum on: 24 items in 6 parts of 4, so 4^6 bases.
	libSubN     = 24
	libSubParts = 6
)

// libMix is the fixed op list, one cycle: how many ops of each kind. The
// query counts give each query kind a similar share of the cycle's time
// (from per-kind latencies measured on a 2-vCPU VM), so a gain in any one
// kind moves queries_per_s. dynamic_update is the library's mutation: a
// Section-6 weight perturbation and its prescribed maintenance on a Dynamic
// session, since an Index itself is immutable.
var libMix = []struct {
	kind  string
	count int
}{
	{"greedy", 380},
	{"greedy_improved", 8},
	{"localsearch", 5},
	{"exact_scan", 11},
	{"prefiltered", 1},
	{"dynamic_update", 100},
}

// libUpdate is the mutation entry of libMix.
const libUpdate = "dynamic_update"

// libQuery is one entry of the fixed query list.
type libQuery struct {
	kind   string
	lambda float64
}

// libList expands libMix into the cycle, λ rotating within each kind.
func libList() []libQuery {
	var out []libQuery
	for _, m := range libMix {
		for i := 0; i < m.count; i++ {
			out = append(out, libQuery{kind: m.kind, lambda: lambdas[i%len(lambdas)]})
		}
	}
	// Interleave kinds so no kind's ops run back to back for long.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// library is the built library-batch system.
type library struct {
	small, large *maxsumdiv.Index
	partition    maxsumdiv.Constraint
	dyn          *maxsumdiv.Dynamic
	largeVecs    [][]float64
	largeW       []float64
	smallVecs    [][]float64
	smallW       []float64
}

// vectors draws n corpus items from seed and splits them into vectors and
// weights.
func vectors(seed int64, n int) ([][]float64, []float64) {
	items := corpusItems(seed, n, libDim)
	vecs := make([][]float64, n)
	ws := make([]float64, n)
	for i, it := range items {
		vecs[i], ws[i] = it.Vector, it.Weight
	}
	return vecs, ws
}

// partition assigns n items round-robin to parts parts, each capped at one
// item: a partition matroid of rank parts.
func partition(n, parts int) (partOf, caps []int) {
	partOf = make([]int, n)
	caps = make([]int, parts)
	for i := range partOf {
		partOf[i] = i % parts
	}
	for j := range caps {
		caps[j] = 1
	}
	return partOf, caps
}

// buildLibrary builds both indexes, the partition constraint and the
// Dynamic session seeded from a greedy answer.
func buildLibrary(ctx context.Context, smallVecs [][]float64, smallW []float64, largeVecs [][]float64, largeW []float64) (*library, error) {
	lib := &library{smallVecs: smallVecs, smallW: smallW, largeVecs: largeVecs, largeW: largeW}
	items := make([]maxsumdiv.Item, len(smallVecs))
	for i := range items {
		items[i] = maxsumdiv.Item{ID: strconv.Itoa(i), Weight: smallW[i], Vector: smallVecs[i]}
	}
	var err error
	if lib.small, err = maxsumdiv.NewIndex(items, maxsumdiv.WithFloat32()); err != nil {
		return nil, err
	}
	if lib.large, err = maxsumdiv.NewVectorIndex(largeVecs, largeW); err != nil {
		return nil, err
	}
	if lib.partition, err = lib.small.PartitionConstraint(partition(libSmallN, libParts)); err != nil {
		return nil, err
	}
	init, err := lib.small.Query(ctx, maxsumdiv.Query{K: libK})
	if err != nil {
		return nil, err
	}
	if lib.dyn, err = lib.small.NewDynamic(init.Indices); err != nil {
		return nil, err
	}
	return lib, nil
}

// query runs one list entry through Index.Query.
func (l *library) query(ctx context.Context, q libQuery) (*maxsumdiv.Solution, error) {
	lam := q.lambda
	switch q.kind {
	case "greedy":
		return l.small.Query(ctx, maxsumdiv.Query{K: libK, Lambda: &lam})
	case "greedy_improved":
		return l.small.Query(ctx, maxsumdiv.Query{K: libK, Lambda: &lam, Algorithm: maxsumdiv.AlgorithmGreedyImproved})
	case "localsearch":
		return l.small.Query(ctx, maxsumdiv.Query{Lambda: &lam, Algorithm: maxsumdiv.AlgorithmLocalSearch, Constraint: l.partition})
	case "exact_scan":
		return l.large.Query(ctx, maxsumdiv.Query{K: libK, Lambda: &lam})
	case "prefiltered":
		return l.large.Query(ctx, maxsumdiv.Query{K: libK, Lambda: &lam, Candidates: maxsumdiv.CandidatesPreFiltered})
	}
	return nil, fmt.Errorf("unknown query kind %q", q.kind)
}

// mutate applies one Section-6 weight perturbation and its prescribed
// maintenance.
func (l *library) mutate(rng *rand.Rand) error {
	pert, err := l.dyn.UpdateWeight(rng.Intn(l.dyn.Len()), rng.Float64())
	if err != nil {
		return err
	}
	_, err = l.dyn.Maintain(pert)
	return err
}

// libPhase is one closed-loop phase's samples.
type libPhase struct {
	queryLat, mutLat []time.Duration
	cycles           []time.Duration // each complete pass over the op list
	elapsed          time.Duration
	failed           int64
	delta            map[string]float64
}

// perCycle is the median over complete cycles of n ops per cycle second:
// every cycle runs the same ops, so a burst of host steal slows a few
// cycles without moving the median.
func (p *libPhase) perCycle(n int) float64 {
	rates := make([]float64, len(p.cycles))
	for i, d := range p.cycles {
		rates[i] = float64(n) / d.Seconds()
	}
	return median(rates)
}

func (p *libPhase) ops() int { return len(p.queryLat) + len(p.mutLat) }

// loop cycles the op list for dur with one caller. With tr set, every call
// is a span, and each cycle also calls core.LocalSearch and candidate.Select
// directly.
func (l *library) loop(ctx context.Context, dur time.Duration, rng *rand.Rand, tr *tracer, direct *directCalls) (*libPhase, error) {
	list := libList()
	p := &libPhase{}
	before := l.counters()
	start := time.Now()
	deadline := start.Add(dur)
	cycleStart := start
	for i := 0; time.Now().Before(deadline); i++ {
		if i%len(list) == 0 {
			if i > 0 {
				p.cycles = append(p.cycles, time.Since(cycleStart))
			}
			if tr != nil {
				if err := direct.run(tr); err != nil {
					return nil, err
				}
			}
			cycleStart = time.Now()
		}
		q := list[i%len(list)]
		var sp open
		if tr != nil {
			sp = tr.start("maxsumdiv."+q.kind, 0)
		}
		t0 := time.Now()
		var err error
		if q.kind == libUpdate {
			err = l.mutate(rng)
			p.mutLat = append(p.mutLat, time.Since(t0))
		} else {
			_, err = l.query(ctx, q)
			p.queryLat = append(p.queryLat, time.Since(t0))
		}
		if tr != nil {
			tr.finish(sp)
		}
		if err != nil {
			p.failed++
		}
	}
	p.elapsed = time.Since(start)
	after := l.counters()
	p.delta = make(map[string]float64, len(after))
	for k, v := range after {
		p.delta[k] = v - before[k]
	}
	return p, nil
}

// busy is the summed latency of the phase's ops.
func (p *libPhase) busy() time.Duration {
	var sum time.Duration
	for _, d := range append(append([]time.Duration(nil), p.queryLat...), p.mutLat...) {
		sum += d
	}
	return sum
}

func (l *library) counters() map[string]float64 {
	c := make(map[string]float64)
	hits, misses, _ := l.large.VectorRowCacheStats()
	c["row_hits"], c["row_misses"] = float64(hits), float64(misses)
	processCounters(c)
	return c
}

// directCalls times core.LocalSearch on the small index's metric and
// partition matroid, and candidate.Select on the large index's vectors, so
// the library wrapper's overhead shows as the difference.
type directCalls struct {
	objs  []*core.Objective // one per λ in lambdas
	part  matroid.Matroid
	pool  *engine.Pool
	vecs  [][]float64
	ws    []float64
	swaps int
	calls int
}

func newDirectCalls(l *library) (*directCalls, error) {
	cos, err := metric.NewCosine(l.smallVecs)
	if err != nil {
		return nil, err
	}
	mod, err := setfunc.NewModular(l.smallW)
	if err != nil {
		return nil, err
	}
	dist := metric.MaterializeF32(cos)
	objs := make([]*core.Objective, len(lambdas))
	for i, lam := range lambdas {
		if objs[i], err = core.NewObjective(mod, lam, dist); err != nil {
			return nil, err
		}
	}
	part, err := matroid.NewPartition(partition(libSmallN, libParts))
	if err != nil {
		return nil, err
	}
	return &directCalls{objs: objs, part: part, pool: engine.New(0), vecs: l.largeVecs, ws: l.largeW}, nil
}

// run makes one call of each, local search at the next λ in rotation.
func (d *directCalls) run(tr *tracer) error {
	sp := tr.start("core.localsearch", 0)
	sol, err := core.LocalSearch(d.objs[d.calls%len(d.objs)], d.part, &core.LSOptions{Pool: d.pool})
	tr.finish(sp)
	if err != nil {
		return err
	}
	d.swaps += sol.Swaps
	d.calls++
	sp = tr.start("candidate.select", 0)
	candidate.Select(d.vecs, d.ws, libK, candidate.Params{})
	tr.finish(sp)
	return nil
}

func runLibrary(ctx context.Context, o runOpts, rep *report) error {
	smallVecs, smallW := vectors(o.seed, libSmallN)
	largeVecs, largeW := vectors(o.seed+1, libLargeN)

	var lib *library
	var times, heaps []float64
	for i := 0; i < setupRepeats; i++ {
		lib = nil
		h0 := heapInUse()
		t0 := time.Now()
		l, err := buildLibrary(ctx, smallVecs, smallW, largeVecs, largeW)
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		heaps = append(heaps, heapInUse()-h0)
		lib = l
	}
	rep.logf("set-up: %d + %d items, %d runs: %.3v s", libSmallN, libLargeN, setupRepeats, times)

	total := time.Duration(o.seconds) * time.Second
	mutRng := rand.New(rand.NewSource(o.seed ^ 0x6d75))
	dur := total
	if o.trace {
		dur = total / 2
	}
	untraced, err := lib.loop(ctx, dur, mutRng, nil, nil)
	if err != nil {
		return err
	}
	var traced *libPhase
	var tr *tracer
	var direct *directCalls
	if o.trace {
		if direct, err = newDirectCalls(lib); err != nil {
			return err
		}
		tr = newTracer()
		if traced, err = lib.loop(ctx, total/2, mutRng, tr, direct); err != nil {
			return err
		}
	}
	heap := heapInUse()

	minRatio, accuracy, err := verifyLibrary(ctx, lib, rep)
	if err != nil {
		return err
	}
	for _, p := range []*libPhase{untraced, traced} {
		if p != nil {
			rep.attempted += int64(p.ops())
			rep.failed += p.failed
		}
	}

	p := untraced
	qs := float64(len(p.queryLat))
	rep.logf("end-to-end (closed loop, 1 caller, %d queries + %d dynamic updates in %v)", len(p.queryLat), len(p.mutLat), p.elapsed.Round(time.Millisecond))
	rep.set("setup_s", median(times), "median of %d builds", setupRepeats)
	for _, l := range []struct {
		kind string
		s    scenario.LatencySummary
	}{{"query", scenario.Summarize(p.queryLat)}, {"mutation", scenario.Summarize(p.mutLat)}} {
		rep.set(l.kind+"_p50_ms", ms(l.s.P50), "%d samples", l.s.Count)
		rep.set(l.kind+"_p99_ms", ms(l.s.P99), "%d samples beyond it", l.s.Count-int64(0.99*float64(l.s.Count-1))-1)
		rep.values["scenario."+l.kind+"_p99_ms"] = ms(l.s.P99)
	}
	rep.values["scenario.query_p50_ms"] = rep.values["query_p50_ms"]
	rep.values["scenario.mutation_p50_ms"] = rep.values["mutation_p50_ms"]
	perCycle := len(libList())
	queriesPerCycle := perCycle
	for _, m := range libMix {
		if m.kind == libUpdate {
			queriesPerCycle -= m.count
		}
	}
	rep.set("sustained_ops_s", p.perCycle(perCycle), "closed-loop completion rate, median over %d cycles of %d ops", len(p.cycles), perCycle)
	rep.set("queries_per_s", p.perCycle(queriesPerCycle), "median over cycles; %.0f queries in %v overall", qs, p.elapsed.Round(time.Millisecond))
	rep.set("cpu_us_per_op", 1e6*ratio(p.delta["cpu_s"], float64(p.ops())), "process cpu %.3fs / %d ops", p.delta["cpu_s"], p.ops())
	rep.set("heap_mb", heap/(1<<20), "heap after forced GC")
	rep.set("bytes_per_item", median(heaps)/float64(libSmallN+libLargeN), "heap the set-up added per item")
	rep.set("objective_ratio", minRatio, "lowest over the verification queries")

	if !o.trace {
		return nil
	}
	rep.logf("per-layer (traced phase)")
	d := traced.delta
	ops := float64(traced.ops())
	for _, m := range libMix {
		if m.kind != libUpdate {
			rep.set("maxsumdiv."+m.kind+"_ms_p50", ms(percentile(tr.durations("maxsumdiv."+m.kind), 0.5)), "%d calls", len(tr.named("maxsumdiv."+m.kind)))
		}
	}
	rep.set("maxsumdiv.dynamic_update_us_p50", us(percentile(tr.durations("maxsumdiv."+libUpdate), 0.5)), "")
	rep.set("core.localsearch_ms_p50", ms(percentile(tr.durations("core.localsearch"), 0.5)), "%d calls, λ rotating", direct.calls)
	rep.setRatio("core.localsearch_swaps_per_query", float64(direct.swaps), float64(direct.calls), "swaps", "calls")
	rep.set("candidate.select_ms_p50", ms(percentile(tr.durations("candidate.select"), 0.5)), "")
	rep.set("candidate.accuracy", accuracy, "lowest pre-filtered / exact-scan greedy objective")
	vecQueries := float64(len(tr.named("maxsumdiv.exact_scan")) + len(tr.named("maxsumdiv.prefiltered")))
	rep.setRatio("metric.row_cache_hit_ratio", d["row_hits"], d["row_hits"]+d["row_misses"], "hits", "lookups")
	rep.setRatio("metric.row_misses_per_query", d["row_misses"], vecQueries, "misses", "vector-index queries")
	rep.setRatio("metric.constructions_per_query", d["constructions"], float64(len(traced.queryLat)), "constructions", "queries")
	rep.set("runtime.alloc_kb_per_op", ratio(d["alloc_bytes"]/1024, ops), "%.0f KB / %.0f ops", d["alloc_bytes"]/1024, ops)
	rep.setRatio("runtime.gc_cpu_fraction", d["gc_cpu_s"], d["total_cpu_s"], "gc cpu s", "total cpu s")
	rep.setRatio("error_rate", float64(traced.failed), ops, "failed", "attempted")
	// The traced phase also makes the direct core and candidate calls, so
	// compare the time the list's own ops took, not process CPU.
	untracedOp := ratio(float64(untraced.busy()), float64(untraced.ops()))
	tracedOp := ratio(float64(traced.busy()), ops)
	rep.set("trace.overhead_ratio", ratio(tracedOp-untracedOp, untracedOp),
		"mean op time traced %.1fus vs untraced %.1fus", tracedOp/1e3, untracedOp/1e3)
	return tr.write(o.spans)
}

// verifyLibrary checks partition-matroid local search against the exact
// matroid optimum on a sub-instance small enough to enumerate (Theorem 2:
// at least half of it), and pre-filtered greedy against exact-scan greedy on
// the large index. It returns the lowest ratio overall and the lowest
// pre-filtered one.
func verifyLibrary(ctx context.Context, l *library, rep *report) (minRatio, accuracy float64, err error) {
	const minPrefiltered = 0.9
	sub := make([]maxsumdiv.Item, libSubN)
	for i := range sub {
		sub[i] = maxsumdiv.Item{ID: strconv.Itoa(i), Weight: l.smallW[i], Vector: l.smallVecs[i]}
	}
	partOf, caps := partition(libSubN, libSubParts)
	subIx, err := maxsumdiv.NewIndex(sub, maxsumdiv.WithFloat32())
	if err != nil {
		return 0, 0, err
	}
	constraint, err := subIx.PartitionConstraint(partOf, caps)
	if err != nil {
		return 0, 0, err
	}
	cos, err := metric.NewCosine(l.smallVecs[:libSubN])
	if err != nil {
		return 0, 0, err
	}
	dist := metric.MaterializeF32(cos)
	mod, err := setfunc.NewModular(l.smallW[:libSubN])
	if err != nil {
		return 0, 0, err
	}
	part, err := matroid.NewPartition(partOf, caps)
	if err != nil {
		return 0, 0, err
	}
	var ratios, accs []float64
	for _, lam := range lambdas {
		rep.attempted += 2
		lv := lam
		ls, err := subIx.Query(ctx, maxsumdiv.Query{Lambda: &lv, Algorithm: maxsumdiv.AlgorithmLocalSearch, Constraint: constraint})
		if err != nil {
			rep.fail("λ=%g local search: %v", lam, err)
			continue
		}
		obj, err := core.NewObjective(mod, lam, dist)
		if err != nil {
			return 0, 0, err
		}
		opt, err := core.ExactMatroid(obj, part)
		if err != nil {
			return 0, 0, err
		}
		r := ratio(ls.Value, opt.Value)
		if r < 0.5 {
			rep.fail("λ=%g: local search kept %.4f of the matroid optimum, Theorem 2 guarantees 0.5", lam, r)
		}
		ratios = append(ratios, r)

		exact, err := l.large.Query(ctx, maxsumdiv.Query{K: libK, Lambda: &lv})
		if err != nil {
			rep.fail("λ=%g exact scan: %v", lam, err)
			continue
		}
		pre, err := l.large.Query(ctx, maxsumdiv.Query{K: libK, Lambda: &lv, Candidates: maxsumdiv.CandidatesPreFiltered})
		if err != nil {
			rep.fail("λ=%g pre-filtered: %v", lam, err)
			continue
		}
		a := candidate.Accuracy(pre.Value, exact.Value)
		if a < minPrefiltered {
			rep.fail("λ=%g: pre-filtered greedy kept %.4f of exact-scan greedy, bar %.2f", lam, a, minPrefiltered)
		}
		accs = append(accs, a)
	}
	sort.Float64s(ratios)
	sort.Float64s(accs)
	if len(ratios) == 0 || len(accs) == 0 {
		return 0, 0, nil
	}
	return min(ratios[0], accs[0]), accs[0], nil
}
