package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"maxsumdiv/internal/metric"
)

// Schema identifies the report layout. Bump on any change to field
// semantics. Readers (ReadReport, and therefore -compare) accept the
// current schema and every entry of compatibleSchemas, so a baseline
// recorded by an older binary still gates a newer one; fresh reports are
// always stamped with the current Schema.
//
// v2: the server query probes measure the rebuild-free corpus path (one
// long-lived backend, per-query λ) instead of per-query problem
// construction, and the suite gained the server/query_reuse probe.
//
// v3: reports stamp the dot-kernel build variant (Kernel), and the suite
// gained the metric/dot_ns_per_coord probes and the multi-λ batched
// throughput probe.
const Schema = "maxsumdiv-bench/v3"

// compatibleSchemas are older layouts this binary still reads; their probe
// names and field meanings are diff-compatible with the current schema.
var compatibleSchemas = map[string]bool{
	"maxsumdiv-bench/v1": true,
	"maxsumdiv-bench/v2": true,
}

// CalibrationName is the fixed pure-CPU probe every report must contain;
// Compare uses it to normalize latencies across machines.
const CalibrationName = "calibration"

// Result is one benchmark's measurement.
type Result struct {
	// Name identifies the probe; names are stable across PRs so reports
	// stay diffable (suite membership may grow, never repurpose a name).
	Name string `json:"name"`
	// Iterations is how many times the op ran (testing.B's N, or the
	// sample count for percentile probes).
	Iterations int `json:"iterations"`
	// NsPerOp is the mean wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the mean heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is the mean heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// ApproxAllocs marks probes whose alloc counts come from
	// process-global MemStats deltas (the percentile probes) rather than
	// testing.Benchmark's per-run accounting; Compare reports but does not
	// gate their allocs/op.
	ApproxAllocs bool `json:"approx_allocs,omitempty"`
	// Extra carries probe-specific metrics (e.g. p50_ns, p99_ns for the
	// server query probes).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the machine-readable output of one suite run.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Kernel is the dot-kernel build variant that produced the measurements
	// ("amd64-v3", "purego", …) — metric.KernelVariant at run time. Empty in
	// pre-v3 reports.
	Kernel     string   `json:"kernel,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Quick      bool     `json:"quick"`
	Results    []Result `json:"results"`
}

// newReport stamps the environment.
func newReport(quick bool) *Report {
	return &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Kernel:     metric.KernelVariant(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
}

// Find returns the named result, or nil.
func (r *Report) Find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// Validate checks structural invariants a report must satisfy before it can
// serve as a baseline: schema match, a calibration entry, unique names, and
// sane measurements.
func (r *Report) Validate() error {
	if r.Schema != Schema && !compatibleSchemas[r.Schema] {
		return fmt.Errorf("bench: schema %q, this binary speaks %q (compatible: %v)", r.Schema, Schema, compatibleSchemas)
	}
	if len(r.Results) == 0 {
		return fmt.Errorf("bench: report has no results")
	}
	seen := make(map[string]bool, len(r.Results))
	for _, res := range r.Results {
		if res.Name == "" {
			return fmt.Errorf("bench: result with empty name")
		}
		if seen[res.Name] {
			return fmt.Errorf("bench: duplicate result %q", res.Name)
		}
		seen[res.Name] = true
		if res.NsPerOp < 0 || res.Iterations <= 0 {
			return fmt.Errorf("bench: result %q has ns_per_op=%g iterations=%d", res.Name, res.NsPerOp, res.Iterations)
		}
	}
	if !seen[CalibrationName] {
		return fmt.Errorf("bench: report lacks the %q entry", CalibrationName)
	}
	return nil
}

// MergeMin folds several runs of the same suite into one report by taking,
// per probe, the run with the lowest ns/op (and the minimum allocs/op and
// bytes/op across runs). Scheduler noise is one-sided — contention only
// ever makes a probe slower — so the per-probe minimum over N runs is the
// low-variance estimator the regression gate needs: cmd/bench -best-of N
// uses it for both baselines and CI runs, which keeps a 15% threshold
// meaningful for sub-millisecond probes. All reports must come from the
// same binary (same schema and probe set as the first).
func MergeMin(reports ...*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("bench: MergeMin of zero reports")
	}
	out := *reports[0]
	out.Results = append([]Result(nil), reports[0].Results...)
	for _, r := range reports[1:] {
		if r.Schema != out.Schema {
			return nil, fmt.Errorf("bench: MergeMin across schemas %q and %q", out.Schema, r.Schema)
		}
		for i := range out.Results {
			cur := r.Find(out.Results[i].Name)
			if cur == nil {
				return nil, fmt.Errorf("bench: MergeMin: run lacks probe %q", out.Results[i].Name)
			}
			best := &out.Results[i]
			minAllocs := min(best.AllocsPerOp, cur.AllocsPerOp)
			minBytes := min(best.BytesPerOp, cur.BytesPerOp)
			if cur.NsPerOp < best.NsPerOp {
				name := best.Name
				*best = *cur
				best.Name = name
			}
			best.AllocsPerOp, best.BytesPerOp = minAllocs, minBytes
		}
	}
	return &out, out.Validate()
}

// Write serializes the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport deserializes and validates a report.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: decode report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// resultOf converts a testing.Benchmark outcome.
func resultOf(name string, b testing.BenchmarkResult) Result {
	r := Result{
		Name:        name,
		Iterations:  b.N,
		NsPerOp:     float64(b.T.Nanoseconds()) / float64(b.N),
		AllocsPerOp: b.AllocsPerOp(),
		BytesPerOp:  b.AllocedBytesPerOp(),
	}
	if len(b.Extra) > 0 {
		r.Extra = b.Extra // the probe's ReportMetric values
	}
	return r
}
