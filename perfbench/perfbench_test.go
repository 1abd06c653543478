package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"maxsumdiv/internal/scenario"
	"maxsumdiv/internal/server"
)

// nopTarget accepts every op and answers queries with an empty selection.
type nopTarget struct{}

func (nopTarget) Insert(context.Context, []scenario.Item) error { return nil }
func (nopTarget) Delete(context.Context, string) error          { return nil }
func (nopTarget) Query(context.Context, scenario.QueryParams) (scenario.QueryResult, error) {
	return scenario.QueryResult{}, nil
}

// opLog generates one phase of w on a virtual clock and returns its op log.
func opLog(t *testing.T, w *openWorkload, seed int64) map[string][]scenario.OpRecord {
	t.Helper()
	spec := &scenario.Spec{
		Name:     w.name,
		Seed:     seed,
		Duration: scenario.Duration{Duration: 2 * time.Second},
		Dim:      w.dim,
		Streams:  w.streams("p1-{stream}-{seq}", w.rate),
	}
	res, err := scenario.Run(context.Background(), spec, scenario.Options{
		Target:    nopTarget{},
		Clock:     scenario.NewVirtualClock(time.Unix(0, 0)),
		RecordOps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.OpLog
}

func TestSameSeedSameOpLog(t *testing.T) {
	for _, w := range []*openWorkload{serveRead, serveChurn, clusterScatter} {
		a, b := opLog(t, w, 7), opLog(t, w, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of seed 7 generated different op logs", w.name)
		}
		if n := len(a[w.streams("{seq}", 1)[0].Name]); n == 0 {
			t.Errorf("%s: empty op log", w.name)
		}
		if reflect.DeepEqual(a, opLog(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same op log", w.name)
		}
		if !reflect.DeepEqual(corpusItems(7, 50, w.dim), corpusItems(7, 50, w.dim)) {
			t.Errorf("%s: seed 7 drew two different corpora", w.name)
		}
	}
	if !reflect.DeepEqual(libList(), libList()) {
		t.Error("library op list differs between calls")
	}
}

func TestRatioHelpersZeroBase(t *testing.T) {
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %g, want 0", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0, 0) = %g, want 0", got)
	}
	if got := ratio(1, 4); got != 0.25 {
		t.Errorf("ratio(1, 4) = %g, want 0.25", got)
	}
	if percentile(nil, 0.99) != 0 || median(nil) != 0 {
		t.Error("percentile or median of no samples is not 0")
	}
	var out bytes.Buffer
	rep := newReport(&out)
	rep.setRatio("metric.row_cache_hit_ratio", 0, 0, "hits", "lookups")
	rep.values["server.trace_coverage"] = math.NaN()
	var line resultLine
	var buf bytes.Buffer
	if err := rep.line(perLayer).write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("result line is not JSON: %v", err)
	}
	for _, name := range []string{"metric.row_cache_hit_ratio", "server.trace_coverage"} {
		if v := line.Metrics[name].Value; v != 0 {
			t.Errorf("%s = %g over a zero base, want 0", name, v)
		}
	}
	if !strings.Contains(out.String(), "lookups 0") {
		t.Errorf("ratio printed without its base: %q", out.String())
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(perLayer))
	}
}

// wrongTarget answers every query with its last item replaced by another
// live item.
type wrongTarget struct {
	scenario.Target
	other string
}

func (w wrongTarget) Query(ctx context.Context, q scenario.QueryParams) (scenario.QueryResult, error) {
	res, err := w.Target.Query(ctx, q)
	if err == nil && len(res.IDs) > 0 {
		for _, id := range res.IDs {
			if id == w.other {
				return res, nil
			}
		}
		res.IDs[len(res.IDs)-1] = w.other
	}
	return res, err
}

func TestReferenceCheckerFlagsWrongAnswer(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []server.BackendKind{server.BackendVecF32, server.BackendF32} {
		s, err := startServer(backend)()
		if err != nil {
			t.Fatal(err)
		}
		items := corpusItems(3, 60, 8)
		if err := load(ctx, s.target(), items); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		rep := newReport(&out)
		if _, err := s.verify(ctx, s.target(), items, rep); err != nil {
			t.Fatal(err)
		}
		if !rep.correct || rep.failed != 0 {
			t.Fatalf("%s: correct answers flagged: %s", backend, out.String())
		}

		// The lightest item is not in the λ=0 answer (the ten heaviest), so at
		// least that answer comes back wrong.
		lightest := items[0]
		for _, it := range items {
			if it.Weight < lightest.Weight {
				lightest = it
			}
		}
		out.Reset()
		rep = newReport(&out)
		if _, err := s.verify(ctx, wrongTarget{Target: s.target(), other: lightest.ID}, items, rep); err != nil {
			t.Fatal(err)
		}
		if rep.correct || rep.failed == 0 {
			t.Errorf("%s: a wrong answer passed the reference check", backend)
		}
	}
	if _, err := objective(byID(corpusItems(3, 5, 4)), []string{"c-0", "gone"}, 1); err == nil {
		t.Error("objective accepted an id that is not live")
	}
	if err := sameIDs([]string{"a", "b"}, []string{"b", "a"}); err != nil {
		t.Errorf("same selection in another order rejected: %v", err)
	}
}
