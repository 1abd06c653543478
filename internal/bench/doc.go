// Package bench is the machine-readable benchmark subsystem: a fixed,
// named suite of performance probes over the whole stack — solver latency
// on the float64 and float32 distance backends, dynamic insert/delete
// update time, in-process server query percentiles, and allocations per
// operation — emitted as a schema-versioned JSON report and re-comparable
// across runs.
//
// The suite exists so that every "faster" claim in this repository is a
// diff against a committed baseline (BENCH_PR10.json at the repo root;
// older ones are kept under testdata/)
// instead of an assertion: cmd/bench runs the suite, writes the report,
// and in -compare mode computes per-benchmark deltas against a previous
// report, exiting nonzero when a latency or allocs/op regression exceeds
// the threshold. CI runs the quick suite on every pull request and fails
// the build on regressions.
//
// # Cross-machine comparability
//
// Raw nanoseconds are machine-bound, so every report carries a
// "calibration" entry — a fixed pure-CPU loop — and Compare normalizes
// each benchmark's latency by its report's calibration time before
// computing ratios. A baseline recorded on one machine therefore gates a
// CI runner of a different speed: what must not grow is the benchmark's
// cost *relative to raw arithmetic on the same machine*. Allocations per
// operation are machine-independent and compare directly.
//
// # Report schema
//
// See Report and Result; Schema is bumped whenever a field changes
// meaning. Readers accept the current schema plus the listed compatible
// older ones (v2 reads v1), so -compare can gate a new binary against a
// baseline recorded before a schema bump.
package bench
