package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the figures a user of the system sees that hold still enough
// from run to run to carry a regression bound, printed by every untraced
// run. The latencies are printed beside them but kept out of the result
// line: on a shared 2-vCPU VM whose host steals 10–30% of the CPU from one
// minute to the next, query_p50_ms moved from 3.6 to 9 ms between runs, and
// the tails (query_p99_ms, mutation_p99_ms) and the sub-millisecond write
// acks (mutation_p50_ms) move by up to 2×. The traced run reports them as
// scenario.query_p50_ms and the like. error_rate is 0 on a healthy run, so
// it travels as the result line's attempted/failed counts and the exit code.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sustained_ops_s", "1/s"},
	{"queries_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"heap_mb", "MiB"},
	{"bytes_per_item", "bytes"},
	{"objective_ratio", "ratio"},
}

// perLayer are the traced run's figures, named layer.metric. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"scenario.query_p50_ms", "ms"},
	{"scenario.query_p99_ms", "ms"},
	{"scenario.mutation_p50_ms", "ms"},
	{"scenario.mutation_p99_ms", "ms"},
	{"scenario.issue_lag_p99_ms", "ms"},
	{"scenario.slot_wait_p99_ms", "ms"},
	{"server.flush_ms_p50", "ms"},
	{"server.flush_ms_p99", "ms"},
	{"server.solve_ms_p50", "ms"},
	{"server.solve_ms_p99", "ms"},
	{"server.decode_us_p50", "us"},
	{"server.encode_us_p50", "us"},
	{"server.maintained_query_ms_p50", "ms"},
	{"server.mutation_us_p50", "us"},
	{"server.mutation_us_p99", "us"},
	{"server.inline_flush_ratio", "ratio"},
	{"server.epochs_per_query", "ratio"},
	{"server.epochs_live_max", "count"},
	{"server.coalesced_ratio", "ratio"},
	{"server.mutations_shed", "count"},
	{"server.trace_coverage", "ratio"},
	{"server.unaccounted_ms_p50", "ms"},
	{"metric.row_cache_hit_ratio", "ratio"},
	{"metric.row_misses_per_query", "ratio"},
	{"metric.compaction_rows_per_mutation", "ratio"},
	{"metric.constructions_per_query", "ratio"},
	{"dynamic.swaps_per_mutation", "ratio"},
	{"cluster.member_call_ms_p50", "ms"},
	{"cluster.member_call_ms_p99", "ms"},
	{"cluster.slowest_member_ms_p50", "ms"},
	{"cluster.member_server_ms_p50", "ms"},
	{"cluster.coordinator_self_ms_p50", "ms"},
	{"cluster.member_reply_kb", "KB"},
	{"cluster.union_size", "count"},
	{"cluster.partial_ratio", "ratio"},
	{"cluster.retry_ratio", "ratio"},
	{"maxsumdiv.greedy_ms_p50", "ms"},
	{"maxsumdiv.greedy_improved_ms_p50", "ms"},
	{"maxsumdiv.localsearch_ms_p50", "ms"},
	{"maxsumdiv.exact_scan_ms_p50", "ms"},
	{"maxsumdiv.prefiltered_ms_p50", "ms"},
	{"maxsumdiv.dynamic_update_us_p50", "us"},
	{"core.localsearch_ms_p50", "ms"},
	{"core.localsearch_swaps_per_query", "ratio"},
	{"candidate.select_ms_p50", "ms"},
	{"candidate.accuracy", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"error_rate", "ratio"},
}

// report collects one run's verdict, counts and metric values, plus the
// human-readable lines printed before the result line.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	out       io.Writer
}

func newReport(out io.Writer) *report {
	return &report{correct: true, values: make(map[string]float64), out: out}
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	for _, name := range []string{"query_p50_ms", "query_p99_ms", "mutation_p50_ms", "mutation_p99_ms"} {
		m[name] = "ms"
	}
	return m
}()

// set records a metric value and prints it with its unit.
func (r *report) set(name string, v float64, format string, args ...any) {
	r.values[name] = v
	note := ""
	if format != "" {
		note = "  (" + fmt.Sprintf(format, args...) + ")"
	}
	fmt.Fprintf(r.out, "  %-38s %.6g %s%s\n", name, v, unitOf[name], note)
}

// setRatio records num/den as a metric and prints it with its base.
func (r *report) setRatio(name string, num, den float64, numName, denName string) {
	r.set(name, ratio(num, den), "%s %.6g / %s %.6g", numName, num, denName, den)
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.failed++
	fmt.Fprintf(r.out, "WRONG: "+format+"\n", args...)
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line builds the result line over defs; a metric the run did not produce
// reads 0 (layers a workload does not exercise).
func (r *report) line(defs []metricDef) resultLine {
	out := resultLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func (l resultLine) write(w io.Writer) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio is num/den with a zero base reading 0: a ratio over nothing (no
// queries in a phase, no cache lookups on a triangular backend) is reported
// as 0 with its base printed beside it, never as NaN or Inf.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the q-quantile of ds by the scenario engine's rule
// (index ⌊q·(n−1)⌋ of the sorted samples), 0 for no samples. ds is sorted in
// place.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[int(q*float64(len(ds)-1))]
}

// median is the middle value of xs (mean of the middle two), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
