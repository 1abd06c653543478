package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maxsumdiv/internal/bench"
)

// writeReport serializes a hand-built report to a temp file.
func writeReport(t *testing.T, dir, name string, entries ...bench.Result) string {
	t.Helper()
	r := &bench.Report{
		Schema: bench.Schema, GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64",
		GOMAXPROCS: 1, Quick: true,
	}
	r.Results = append([]bench.Result{
		{Name: bench.CalibrationName, Iterations: 100, NsPerOp: 1e6},
	}, entries...)
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := r.Write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list", "-quick"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"calibration", "greedy-improved/f32-dense/n=10000/k=64/e2e"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareFilesNoRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json",
		bench.Result{Name: "x", Iterations: 10, NsPerOp: 5e6, AllocsPerOp: 10})
	cur := writeReport(t, dir, "cur.json",
		bench.Result{Name: "x", Iterations: 10, NsPerOp: 5.2e6, AllocsPerOp: 10})
	var out, errb bytes.Buffer
	if code := run([]string{"-in", cur, "-compare", base}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("missing pass line:\n%s", out.String())
	}
}

func TestCompareFilesRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json",
		bench.Result{Name: "x", Iterations: 10, NsPerOp: 5e6, AllocsPerOp: 10})
	cur := writeReport(t, dir, "cur.json",
		bench.Result{Name: "x", Iterations: 10, NsPerOp: 9e6, AllocsPerOp: 10})
	var out, errb bytes.Buffer
	if code := run([]string{"-in", cur, "-compare", base}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1: %s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("missing regression marker:\n%s", out.String())
	}
}

// TestInEchoesReport: -in without -compare/-out revalidates the report and
// echoes it, never exiting silently.
func TestInEchoesReport(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "r.json",
		bench.Result{Name: "x", Iterations: 10, NsPerOp: 5e6})
	var out, errb bytes.Buffer
	if code := run([]string{"-in", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), bench.Schema) {
		t.Fatalf("report not echoed:\n%s", out.String())
	}
}

func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "("}, &out, &errb); code != 2 {
		t.Fatalf("bad regexp: exit %d, want 2", code)
	}
	if code := run([]string{"-in", "/does/not/exist.json", "-compare", "/also/missing.json"}, &out, &errb); code != 2 {
		t.Fatalf("missing files: exit %d, want 2", code)
	}
}

// TestBaselineIsValid guards the committed schema-v1 baseline kept under
// testdata/: it must
// parse, validate, and contain the acceptance pair showing the float32
// backend faster and lighter than the float64 path at n=10k.
func TestBaselineIsValid(t *testing.T) {
	f, err := os.Open("../../testdata/BENCH_PR3.json")
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	defer f.Close()
	rep, err := bench.ReadReport(f)
	if err != nil {
		t.Fatal(err)
	}
	f64 := rep.Find("greedy-improved/f64-cached/n=10000/k=64/e2e")
	f32 := rep.Find("greedy-improved/f32-dense/n=10000/k=64/e2e")
	if f64 == nil || f32 == nil {
		t.Fatal("baseline lacks the n=10k backend pair")
	}
	if f32.NsPerOp >= f64.NsPerOp {
		t.Fatalf("baseline records no float32 speedup: f32 %.0f ns vs f64 %.0f ns", f32.NsPerOp, f64.NsPerOp)
	}
	if f32.AllocsPerOp >= f64.AllocsPerOp {
		t.Fatalf("baseline records no allocs win: f32 %d vs f64 %d", f32.AllocsPerOp, f64.AllocsPerOp)
	}
}
