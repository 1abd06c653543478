// Command bench runs the repository's fixed performance suite and emits a
// schema-versioned, machine-readable JSON report — the artifact behind
// every recorded perf claim and the CI regression gate.
//
// Usage:
//
//	bench [-quick] [-run regex] [-out report.json] [-best-of 1]
//	      [-compare baseline.json] [-threshold 0.15]
//	      [-in report.json] [-list]
//
// Modes:
//
//	bench -out BENCH_PR10.json                 # full suite → baseline file
//	bench -quick -out new.json                 # CI's per-PR quick suite
//	bench -quick -compare BENCH_PR10.json      # run, then gate vs baseline
//	bench -in new.json -compare BENCH_PR10.json  # gate a saved report (no run)
//
// Older baselines (testdata/BENCH_PR3.json..BENCH_PR9.json) stay readable
// and diffable.
//
// In -compare mode the process exits 1 when any benchmark regresses past
// the threshold: normalized latency (each report's times are divided by its
// own pure-CPU "calibration" entry, so baselines transfer across machines)
// or allocs/op (compared directly; machine-independent). Quick runs
// compared against a full baseline simply skip the entries the quick suite
// does not produce.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"

	"maxsumdiv/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run only the quick suite (CI's per-PR subset)")
	runRe := fs.String("run", "", "only run benchmarks matching this regexp (calibration always runs)")
	out := fs.String("out", "", "write the JSON report to this file (default: stdout)")
	compareTo := fs.String("compare", "", "compare against this baseline report and exit 1 on regression")
	threshold := fs.Float64("threshold", bench.DefaultLatencyThreshold, "normalized-latency regression threshold (relative growth)")
	in := fs.String("in", "", "skip running; load the current report from this file (validated, echoed to -out/stdout unless comparing)")
	bestOf := fs.Int("best-of", 1, "run the suite this many times and keep each probe's minimum (damps scheduler noise on sub-ms probes; use the same value for baseline and gate runs)")
	list := fs.Bool("list", false, "list benchmark names and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var filter *regexp.Regexp
	if *runRe != "" {
		re, err := regexp.Compile(*runRe)
		if err != nil {
			fmt.Fprintln(stderr, "bench: bad -run regexp:", err)
			return 2
		}
		filter = re
	}
	opts := bench.Options{Quick: *quick, Filter: filter, Log: stderr}

	if *list {
		for _, s := range bench.Suite(opts) {
			fmt.Fprintln(stdout, s.Name)
		}
		return 0
	}

	var report *bench.Report
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		report, err = bench.ReadReport(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	} else {
		runs := *bestOf
		if runs < 1 {
			runs = 1
		}
		reports := make([]*bench.Report, 0, runs)
		for i := 0; i < runs; i++ {
			if runs > 1 {
				fmt.Fprintf(stderr, "bench: run %d/%d\n", i+1, runs)
			}
			r, err := bench.Run(opts)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			reports = append(reports, r)
		}
		var err error
		report, err = bench.MergeMin(reports...)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if err := report.Write(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	} else if *compareTo == "" {
		// No file sink and no comparison: the report (fresh or loaded and
		// revalidated via -in) goes to stdout rather than vanishing.
		if err := report.Write(stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}

	if *compareTo == "" {
		return 0
	}
	bf, err := os.Open(*compareTo)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	baseline, err := bench.ReadReport(bf)
	bf.Close()
	if err != nil {
		fmt.Fprintln(stderr, "bench: baseline:", err)
		return 2
	}
	cmp, err := bench.Compare(baseline, report, *threshold)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cmp.WriteText(stdout)
	if reg := cmp.Regressions(); len(reg) > 0 {
		fmt.Fprintf(stderr, "bench: %d regression(s) past threshold\n", len(reg))
		return 1
	}
	fmt.Fprintln(stdout, "bench: no regressions")
	return 0
}
