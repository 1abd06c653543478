// Command perfbench is the repository's workload benchmark. It runs one named
// workload through the public entry points of the serving layer, the
// cluster coordinator or the library, checks every answer against a
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as the last line of its output:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//
// The workload inputs are a pure function of --seed. The run exits non-zero
// on any wrong answer or failed operation, and exits 3 without a result when
// the load generator itself fell behind its schedule.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o runOpts, rep *report) error{
	"serve-read":      openRunner(serveRead),
	"serve-churn":     openRunner(serveChurn),
	"cluster-scatter": openRunner(clusterScatter),
	"library-batch":   runLibrary,
}

func openRunner(w *openWorkload) func(context.Context, runOpts, *report) error {
	return func(ctx context.Context, o runOpts, rep *report) error { return runOpen(ctx, w, o, rep) }
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := runOpts{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		spans:   filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)),
	}
	rep := newReport(stdout)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n", *name, o.seed, o.seconds, *trace, runtime.GOMAXPROCS(0))
	if err := runner(context.Background(), o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		if isInvalid(err) {
			return 3
		}
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := rep.line(defs).write(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !rep.correct || rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed or answered wrong\n", *name, rep.failed, rep.attempted)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
