package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"maxsumdiv/internal/metric"
	"maxsumdiv/internal/scenario"
)

// setupRepeats is how many times a run sets the system up; setup_s is the
// median, and the last system built is the one measured.
const setupRepeats = 3

// verifyK is the result size of the verification queries.
const verifyK = 10

// lambdas is the trade-off set queries rotate over and verification covers.
var lambdas = []float64{0, 0.25, 0.5, 1, 2}

// ladder holds the offered-rate multipliers, ascending, tried after the
// nominal phase; sustained_ops_s is the highest rung that passes. Host steal
// moves capacity by up to a third between runs, so the rungs sit far apart:
// 1.5× nominal passes even then, and 6.5× is past capacity until the system
// gets several times faster.
var ladder = []float64{1.5, 6.5, 25}

// rungLimit is the query p99 a rung must stay within.
const rungLimit = 250 * time.Millisecond

// openWorkload is an open-loop serving workload: a corpus loaded at set-up,
// then load phases generated by the scenario engine at fixed offered rates.
type openWorkload struct {
	name   string
	dim    int
	corpus int // items loaded at set-up
	// rate is the nominal offered ops/s, a quarter to a half of the measured
	// capacity: low enough that queueing does not amplify host noise into
	// the latencies.
	rate float64
	// streams builds one phase's streams at the given offered rate; ids of
	// inserted items follow idTemplate.
	streams func(idTemplate string, rate float64) []scenario.StreamSpec
	start   func() (system, error)
}

// system is one deployment under test: an in-process server or a cluster.
type system interface {
	// target is the public request path.
	target() scenario.Target
	// traced is the same path with every layer call recorded in tr.
	traced(tr *tracer) scenario.Target
	// counters reads the system's cumulative counters.
	counters(ctx context.Context) (map[string]float64, error)
	// bytesPerItem is the resident-bytes-per-item figure /stats reports.
	bytesPerItem(ctx context.Context) (float64, error)
	// verify queries each λ through t and checks the answers against a
	// reference solved over items; it returns the lowest objective ratio.
	verify(ctx context.Context, t scenario.Target, items []scenario.Item, rep *report) (float64, error)
	// layers derives the per-layer metrics of a traced phase.
	layers(tr *tracer, d map[string]float64, rep *report)
	close()
}

// phaseResult is one load phase's outcome and the counter movement across it.
type phaseResult struct {
	res    *scenario.RunResult
	clock  *healthClock
	mt     *mirrorTarget
	delta  map[string]float64
	failed int64   // failed ops plus invariant violations
	heap   float64 // mean live heap over the phase, bytes
}

func (p *phaseResult) opsPerSec() float64 {
	return ratio(float64(p.res.Total()), p.res.Elapsed.Seconds())
}

// passes applies the ladder's acceptance rule to a phase: no failures, query
// p99 within limit, and no slot-wait backlog growing past a fifth of limit.
func (p *phaseResult) passes() bool {
	return p.failed == 0 && p.res.QueryLat().P99 <= rungLimit && !p.clock.backlogGrowing(rungLimit/5)
}

type runOpts struct {
	seed    int64
	seconds int
	trace   bool
	spans   string // where the traced run writes its spans
}

func runOpen(ctx context.Context, w *openWorkload, o runOpts, rep *report) error {
	items := corpusItems(o.seed, w.corpus, w.dim)
	sys, setup, err := setUp(ctx, w, items, rep)
	if err != nil {
		return err
	}
	defer sys.close()
	m := newMirror()
	m.put(items)

	total := time.Duration(o.seconds) * time.Second
	phases, last := 0, ""
	run := func(rate float64, dur time.Duration, t scenario.Target, grace time.Duration) (*phaseResult, error) {
		// Take the previous phase's surviving streamed items back out, so
		// every phase starts from the corpus set-up loaded. The last phase's
		// stay for the verification queries to answer over.
		if last != "" {
			for _, id := range m.withPrefix(last) {
				if err := sys.target().Delete(ctx, id); err == nil {
					m.remove(id)
				}
			}
		}
		phases++
		last = fmt.Sprintf("p%d-", phases)
		return w.phase(ctx, sys, m, t, last, o.seed*1000+int64(phases), rate, dur, grace)
	}

	// The nominal phase measures the end-to-end figures in windows: each
	// latency is the median of its per-window values, so a burst of host
	// steal in one window does not move it, while counts and CPU pool over
	// the whole phase. A window that overruns its duration by more than its
	// own length has fallen hopelessly behind; it is cancelled and its
	// unfinished ops count as failures.
	win := total * 6 / 10 / nominalWindows
	var nominal windows
	for i := 0; i < nominalWindows; i++ {
		p, err := run(w.rate, win, sys.target(), win)
		if err != nil {
			return err
		}
		nominal = append(nominal, p)
		rep.attempted += p.mt.attempted.Load()
		rep.failed += p.failed
		for _, e := range append(p.res.Errors, p.res.Violations...) {
			rep.logf("phase error: %s", e)
		}
	}
	queryP50 := nominal.median(func(p *phaseResult) float64 { return ms(p.res.QueryLat().P50) })
	// The generator shares the CPUs with the system, so its wake-ups run
	// late when both are busy; that lateness counts in the latencies, but a
	// typical lag rivalling a typical query means the schedule itself, not
	// the system, set the figures.
	if lag := nominal.median(func(p *phaseResult) float64 { return ms(p.clock.issueLag(0.5)) }); 2*lag >= queryP50 {
		return errInvalid{fmt.Errorf("generator issue lag p50 %.3fms rivals query p50 %.3fms", lag, queryP50)}
	}

	var traced *phaseResult
	var tr *tracer
	if o.trace {
		tr = newTracer()
		traced, err = run(w.rate, total/2, sys.traced(tr), total/2)
		if err != nil {
			return err
		}
		rep.attempted += traced.mt.attempted.Load()
		rep.failed += traced.failed
	}

	// Load has stopped: read the corpus, then check answers.
	bpi, err := sys.bytesPerItem(ctx)
	if err != nil {
		return err
	}
	live := m.sorted()
	minRatio, err := sys.verify(ctx, sys.target(), live, rep)
	if err != nil {
		return err
	}

	ops := nominal.sum(func(p *phaseResult) float64 { return float64(p.res.Total()) })
	queries := nominal.sum(func(p *phaseResult) float64 { return float64(p.res.Queries()) })
	elapsed := nominal.sum(func(p *phaseResult) float64 { return p.res.Elapsed.Seconds() })
	cpu := nominal.sum(func(p *phaseResult) float64 { return p.delta["cpu_s"] })
	rep.logf("end-to-end (nominal phase: %.0f ops/s offered in %d windows of %v, %d live items at verification)",
		w.rate, nominalWindows, win, len(live))
	rep.set("setup_s", setup, "median of %d set-ups", setupRepeats)
	nominal.latency(rep, "query", func(p *phaseResult) scenario.LatencySummary { return p.res.QueryLat() })
	nominal.latency(rep, "mutation", func(p *phaseResult) scenario.LatencySummary { return p.res.MutationLat })
	rep.values["scenario.query_p50_ms"] = rep.values["query_p50_ms"]
	rep.values["scenario.mutation_p50_ms"] = rep.values["mutation_p50_ms"]
	rep.set("queries_per_s", ratio(queries, elapsed), "%.0f queries in %.3fs", queries, elapsed)
	rep.set("cpu_us_per_op", 1e6*ratio(cpu, ops), "process cpu %.3fs / %.0f ops", cpu, ops)
	rep.set("heap_mb", nominal.sum(func(p *phaseResult) float64 { return p.heap })/float64(len(nominal))/(1<<20),
		"mean live heap over the phase; %.1f after a forced GC at its end", heapInUse()/(1<<20))
	rep.set("bytes_per_item", bpi, "/stats resident bytes per item")
	rep.set("objective_ratio", minRatio, "lowest over %d verification queries", len(lambdas))

	if o.trace {
		rep.logf("per-layer (traced phase, same rate, %v)", total/2)
		commonLayers(rep, traced)
		sys.layers(tr, traced.delta, rep)
		untracedCPU := ratio(cpu, ops)
		tracedCPU := ratio(traced.delta["cpu_s"], float64(traced.res.Total()))
		rep.set("trace.overhead_ratio", ratio(tracedCPU-untracedCPU, untracedCPU),
			"cpu/op traced %.1fus vs untraced %.1fus", 1e6*tracedCPU, 1e6*untracedCPU)
		return tr.write(o.spans)
	}

	// The ladder: step the offered rate up until a rung fails.
	sustained := 0.0
	if nominal.passes() {
		sustained = ratio(ops, elapsed)
	} else {
		rep.logf("nominal rate %.0f ops/s fails the ladder rule (limit %v)", w.rate, rungLimit)
	}
	rung := total / 10
	for _, mult := range ladder {
		if sustained == 0 {
			break
		}
		p, err := run(w.rate*mult, rung, sys.target(), time.Second)
		if err != nil {
			return err
		}
		ok := p.passes()
		rep.logf("  rung %.0f ops/s: achieved %.1f ops/s, query p99 %v, failed %d, slot wait p99 %v, backlog growing %v → pass %v",
			w.rate*mult, p.opsPerSec(), p.res.QueryLat().P99, p.failed, p.clock.slotWaitP99(), p.clock.backlogGrowing(rungLimit/5), ok)
		if !ok {
			break
		}
		sustained = p.opsPerSec()
	}
	rep.set("sustained_ops_s", sustained, "highest passing rung of %v × %.0f ops/s, query p99 limit %v", append([]float64{1}, ladder...), w.rate, rungLimit)
	return nil
}

// nominalWindows is how many consecutive windows the nominal phase runs.
const nominalWindows = 3

// windows are the nominal phase's windows.
type windows []*phaseResult

func (ws windows) sum(f func(*phaseResult) float64) float64 {
	var s float64
	for _, p := range ws {
		s += f(p)
	}
	return s
}

func (ws windows) median(f func(*phaseResult) float64) float64 {
	xs := make([]float64, len(ws))
	for i, p := range ws {
		xs[i] = f(p)
	}
	return median(xs)
}

// passes holds when every window passes the ladder rule.
func (ws windows) passes() bool {
	for _, p := range ws {
		if !p.passes() {
			return false
		}
	}
	return true
}

// latency sets <kind>_p50_ms and <kind>_p99_ms to the median of the
// windows' percentiles and reports how many samples lie beyond each p99.
func (ws windows) latency(rep *report, kind string, of func(*phaseResult) scenario.LatencySummary) {
	var beyond []string
	for _, p := range ws {
		s := of(p)
		beyond = append(beyond, fmt.Sprint(max(s.Count-int64(0.99*float64(s.Count-1))-1, 0)))
	}
	rep.set(kind+"_p50_ms", ws.median(func(p *phaseResult) float64 { return ms(of(p).P50) }),
		"median of windows; %.0f samples", ws.sum(func(p *phaseResult) float64 { return float64(of(p).Count) }))
	p99 := ws.median(func(p *phaseResult) float64 { return ms(of(p).P99) })
	rep.set(kind+"_p99_ms", p99, "median of windows; %s samples beyond each", strings.Join(beyond, "/"))
	rep.values["scenario."+kind+"_p99_ms"] = p99
}

// setUp builds and loads the system setupRepeats times and returns the
// median time; the last system is returned for measurement.
func setUp(ctx context.Context, w *openWorkload, items []scenario.Item, rep *report) (system, float64, error) {
	var sys system
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		s, err := w.start()
		if err != nil {
			return nil, 0, err
		}
		// The first query flushes every queue and publishes the corpus.
		err = load(ctx, s.target(), items)
		if err == nil {
			_, err = s.target().Query(ctx, scenario.QueryParams{K: verifyK})
		}
		if err != nil {
			s.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	rep.logf("set-up: %d items, %d runs: %.3v s", len(items), len(times), times)
	return sys, median(times), nil
}

// phase runs one load phase of the workload against t.
func (w *openWorkload) phase(ctx context.Context, sys system, m *mirror, t scenario.Target, prefix string, seed int64, rate float64, dur, grace time.Duration) (*phaseResult, error) {
	if seed == 0 {
		seed = 1 // the scenario engine reserves seed 0
	}
	spec := &scenario.Spec{
		Name:     w.name,
		Seed:     seed,
		Duration: scenario.Duration{Duration: dur},
		Dim:      w.dim,
		Streams:  w.streams(prefix+"{stream}-{seq}", rate),
	}
	p := &phaseResult{clock: &healthClock{}, mt: &mirrorTarget{inner: t, m: m}}
	before, err := readCounters(ctx, sys)
	if err != nil {
		return nil, err
	}
	pctx, cancel := context.WithTimeout(ctx, dur+grace)
	stop := sampleHeap(&p.heap)
	p.res, err = scenario.Run(pctx, spec, scenario.Options{Target: p.mt, Clock: p.clock})
	stop()
	cancel()
	if err != nil {
		return nil, fmt.Errorf("%s phase: %w", w.name, err)
	}
	after, err := readCounters(ctx, sys)
	if err != nil {
		return nil, err
	}
	p.delta = make(map[string]float64, len(after))
	for k, v := range after {
		p.delta[k] = v - before[k]
	}
	p.failed = p.mt.failed.Load() + int64(len(p.res.Violations))
	return p, nil
}

// commonLayers sets the per-layer metrics every open-loop workload shares.
func commonLayers(rep *report, p *phaseResult) {
	d := p.delta
	ops := float64(p.res.Total())
	rep.set("scenario.issue_lag_p99_ms", ms(p.clock.issueLag(0.99)), "p50 %v", p.clock.issueLag(0.5))
	rep.set("scenario.slot_wait_p99_ms", ms(p.clock.slotWaitP99()), "")
	rep.set("runtime.alloc_kb_per_op", ratio(d["alloc_bytes"]/1024, ops), "%.0f KB / %.0f ops", d["alloc_bytes"]/1024, ops)
	rep.setRatio("runtime.gc_cpu_fraction", d["gc_cpu_s"], d["total_cpu_s"], "gc cpu s", "total cpu s")
	rep.setRatio("error_rate", float64(p.failed), float64(p.mt.attempted.Load()), "failed", "attempted")
	rep.setRatio("metric.constructions_per_query", d["constructions"], float64(p.res.Queries()), "constructions", "queries")
	muts := float64(p.res.Total() - p.res.Queries())
	rep.setRatio("metric.compaction_rows_per_mutation", d["compaction_rows"], muts, "rows", "mutations")
}

// readCounters reads the system's counters plus the process-wide ones.
func readCounters(ctx context.Context, sys system) (map[string]float64, error) {
	c, err := sys.counters(ctx)
	if err != nil {
		return nil, err
	}
	processCounters(c)
	return c, nil
}

// processCounters adds CPU time, allocation and GC readings and the metric
// package's construction and compaction counters.
func processCounters(c map[string]float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c["cpu_s"] = tv(ru.Utime) + tv(ru.Stime)
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c["alloc_bytes"] = float64(samples[0].Value.Uint64())
	c["gc_cpu_s"] = samples[1].Value.Float64()
	c["total_cpu_s"] = samples[2].Value.Float64()
	c["constructions"] = float64(metric.Constructions())
	c["compaction_rows"] = float64(metric.CompactionRows())
}

// sampleHeap records into *mean the average live heap the collector marked,
// read every 100ms until the returned stop is called. A single reading after
// a forced GC lands anywhere in the write path's compaction cycle (on
// serve-churn anywhere from 60 to 115 MB); the average over the phase does
// not.
func sampleHeap(mean *float64) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var sum float64
		var n int
		for {
			metrics.Read(s)
			sum += float64(s[0].Value.Uint64())
			n++
			select {
			case <-done:
				*mean = sum / float64(n)
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// heapInUse is the heap after a forced collection.
func heapInUse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// errInvalid marks a run whose measurement cannot be trusted (the load
// generator itself fell behind); it is reported, not measured.
type errInvalid struct{ err error }

func (e errInvalid) Error() string { return "invalid run: " + e.err.Error() }

func isInvalid(err error) bool {
	var inv errInvalid
	return errors.As(err, &inv)
}
