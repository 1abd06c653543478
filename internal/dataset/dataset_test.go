package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"maxsumdiv/internal/metric"
)

func TestSyntheticShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst := Synthetic(50, rng)
	if inst.N() != 50 {
		t.Fatalf("N = %d", inst.N())
	}
	for i, w := range inst.Weights {
		if w < 0 || w >= 1 {
			t.Fatalf("weight[%d] = %g outside [0,1)", i, w)
		}
	}
	for i := 0; i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			d := inst.Dist.Distance(i, j)
			if d < 1 || d >= 2 {
				t.Fatalf("d(%d,%d) = %g outside [1,2)", i, j, d)
			}
		}
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("synthetic instance invalid: %v", err)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := Synthetic(20, rand.New(rand.NewSource(7)))
	b := Synthetic(20, rand.New(rand.NewSource(7)))
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if a.Dist.Distance(i, j) != b.Dist.Distance(i, j) {
				t.Fatal("same seed produced different distances")
			}
		}
	}
}

func TestInstanceObjective(t *testing.T) {
	inst := Synthetic(10, rand.New(rand.NewSource(3)))
	obj, err := inst.Objective(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if obj.N() != 10 || obj.Lambda() != 0.2 {
		t.Error("objective misconfigured")
	}
	if _, err := inst.Objective(-1); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestLETORLikeShape(t *testing.T) {
	cfg := LETORConfig{Queries: 3, DocsPerQuery: 100, Topics: 5, FeatureDim: 12, Seed: 11}
	qs, err := LETORLike(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("got %d queries", len(qs))
	}
	relSeen := map[int]bool{}
	for _, q := range qs {
		if len(q.Docs) != 100 {
			t.Fatalf("query %d has %d docs", q.ID, len(q.Docs))
		}
		for _, d := range q.Docs {
			if d.Relevance < 0 || d.Relevance > 5 {
				t.Fatalf("relevance %d outside 0..5", d.Relevance)
			}
			relSeen[d.Relevance] = true
			if len(d.Features) != 12 {
				t.Fatalf("feature dim %d", len(d.Features))
			}
			if d.QueryID != q.ID {
				t.Fatal("QueryID mismatch")
			}
			if d.Topic < 0 || d.Topic >= 5 {
				t.Fatalf("topic %d outside range", d.Topic)
			}
		}
	}
	if len(relSeen) < 4 {
		t.Errorf("relevance grades not spread: only %d distinct values", len(relSeen))
	}
}

func TestLETORLikeDeterminism(t *testing.T) {
	cfg := LETORConfig{Queries: 2, DocsPerQuery: 30, Topics: 4, FeatureDim: 8, Seed: 5}
	a, _ := LETORLike(cfg)
	b, _ := LETORLike(cfg)
	for qi := range a {
		for di := range a[qi].Docs {
			if a[qi].Docs[di].Relevance != b[qi].Docs[di].Relevance {
				t.Fatal("same seed produced different relevance")
			}
			for k := range a[qi].Docs[di].Features {
				if a[qi].Docs[di].Features[k] != b[qi].Docs[di].Features[k] {
					t.Fatal("same seed produced different features")
				}
			}
		}
	}
}

func TestLETORLikeClusteredGeometry(t *testing.T) {
	// Same-topic documents must be closer (in cosine distance) on average
	// than cross-topic documents — the property that drives the paper's
	// Tables 4–7 shape.
	cfg := LETORConfig{Queries: 1, DocsPerQuery: 150, Topics: 5, FeatureDim: 20, Seed: 9}
	qs, _ := LETORLike(cfg)
	docs := qs[0].Docs
	vecs := make([][]float64, len(docs))
	for i, d := range docs {
		vecs[i] = d.Features
	}
	cos, err := metric.NewCosine(vecs)
	if err != nil {
		t.Fatal(err)
	}
	var sameSum, crossSum float64
	var sameN, crossN int
	for i := 0; i < len(docs); i++ {
		for j := i + 1; j < len(docs); j++ {
			d := cos.Distance(i, j)
			if docs[i].Topic == docs[j].Topic {
				sameSum += d
				sameN++
			} else {
				crossSum += d
				crossN++
			}
		}
	}
	if sameN == 0 || crossN == 0 {
		t.Skip("degenerate topic assignment")
	}
	same, cross := sameSum/float64(sameN), crossSum/float64(crossN)
	if same >= cross {
		t.Fatalf("same-topic mean distance %g not below cross-topic %g", same, cross)
	}
}

func TestLETORLikeRelevanceCorrelatesWithCentralTopics(t *testing.T) {
	cfg := LETORConfig{Queries: 1, DocsPerQuery: 300, Topics: 6, FeatureDim: 15, Seed: 13}
	qs, _ := LETORLike(cfg)
	docs := qs[0].Docs
	// Topic frequency approximates query centrality; top-relevance docs
	// should concentrate on frequent topics.
	freq := map[int]int{}
	for _, d := range docs {
		freq[d.Topic]++
	}
	var relWeighted, baseline float64
	var relN int
	for _, d := range docs {
		if d.Relevance >= 4 {
			relWeighted += float64(freq[d.Topic])
			relN++
		}
		baseline += float64(freq[d.Topic])
	}
	if relN == 0 {
		t.Skip("no high-relevance docs in sample")
	}
	relWeighted /= float64(relN)
	baseline /= float64(len(docs))
	if relWeighted < baseline {
		t.Errorf("high-relevance docs sit on less-frequent topics (%.1f < %.1f)", relWeighted, baseline)
	}
}

func TestLETORLikeValidation(t *testing.T) {
	bad := []LETORConfig{
		{Queries: 0, DocsPerQuery: 10, Topics: 2, FeatureDim: 4},
		{Queries: 1, DocsPerQuery: 0, Topics: 2, FeatureDim: 4},
		{Queries: 1, DocsPerQuery: 10, Topics: 0, FeatureDim: 4},
		{Queries: 1, DocsPerQuery: 10, Topics: 2, FeatureDim: 0},
	}
	for i, cfg := range bad {
		if _, err := LETORLike(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestTopK(t *testing.T) {
	q := Query{ID: 0, Docs: []Document{
		{ID: 0, Relevance: 2},
		{ID: 1, Relevance: 5},
		{ID: 2, Relevance: 5},
		{ID: 3, Relevance: 0},
	}}
	top := TopK(q, 3)
	if len(top) != 3 {
		t.Fatalf("got %d docs", len(top))
	}
	if top[0].ID != 1 || top[1].ID != 2 || top[2].ID != 0 {
		t.Fatalf("order %v", []int{top[0].ID, top[1].ID, top[2].ID})
	}
	if got := TopK(q, 10); len(got) != 4 {
		t.Errorf("overlong k returned %d", len(got))
	}
	// TopK must not mutate the query's own list.
	if q.Docs[0].ID != 0 {
		t.Error("TopK reordered the input")
	}
}

func TestDocObjective(t *testing.T) {
	qs, _ := LETORLike(LETORConfig{Queries: 1, DocsPerQuery: 25, Topics: 3, FeatureDim: 10, Seed: 17})
	docs := qs[0].Docs
	obj, err := DocObjective(docs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if obj.N() != 25 {
		t.Fatalf("N = %d", obj.N())
	}
	// f({i}) must equal the relevance.
	for i := 0; i < 5; i++ {
		if got := obj.F().Value([]int{i}); got != float64(docs[i].Relevance) {
			t.Fatalf("f({%d}) = %g, want %d", i, got, docs[i].Relevance)
		}
	}
	// Distances lie in [0, 2] (cosine distance range).
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			d := obj.Metric().Distance(i, j)
			if d < 0 || d > 2 {
				t.Fatalf("cosine distance %g outside [0,2]", d)
			}
		}
	}
	// Angular variant is a true metric.
	objA, err := DocObjectiveAngular(docs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if err := metric.Validate(objA.Metric(), 1e-9); err != nil {
		t.Fatalf("angular doc metric invalid: %v", err)
	}
	if _, err := DocObjective(nil, 0.2); err == nil {
		t.Error("empty docs accepted")
	}
	if _, err := DocObjective([]Document{{Relevance: -1, Features: []float64{1}}}, 0.2); err == nil {
		t.Error("negative relevance accepted")
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	inst := Synthetic(8, rand.New(rand.NewSource(19)))
	var buf bytes.Buffer
	if err := WriteInstanceJSON(&buf, inst); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstanceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inst.Weights {
		if math.Abs(back.Weights[i]-inst.Weights[i]) > 1e-15 {
			t.Fatal("weights changed in round trip")
		}
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if math.Abs(back.Dist.Distance(i, j)-inst.Dist.Distance(i, j)) > 1e-15 {
				t.Fatal("distances changed in round trip")
			}
		}
	}
}

func TestReadInstanceJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":      "{",
		"row-mismatch": `{"weights":[1,2],"distance":[[0]]}`,
		"asymmetric":   `{"weights":[1,2],"distance":[[0,1],[2,0]]}`,
		"negative-w":   `{"weights":[-1,2],"distance":[[0,1],[1,0]]}`,
	}
	for name, in := range cases {
		if _, err := ReadInstanceJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestQueriesJSONRoundTrip(t *testing.T) {
	qs, _ := LETORLike(LETORConfig{Queries: 2, DocsPerQuery: 5, Topics: 2, FeatureDim: 3, Seed: 23})
	var buf bytes.Buffer
	if err := WriteQueriesJSON(&buf, qs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadQueriesJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || len(back[0].Docs) != 5 {
		t.Fatal("shape changed in round trip")
	}
	if back[1].Docs[3].Relevance != qs[1].Docs[3].Relevance {
		t.Fatal("relevance changed in round trip")
	}
	if _, err := ReadQueriesJSON(strings.NewReader(`[{"ID":0,"Docs":[{"ID":0,"Relevance":-2}]}]`)); err == nil {
		t.Error("negative relevance accepted")
	}
	if _, err := ReadQueriesJSON(strings.NewReader(`{`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestItemsCSVRoundTrip(t *testing.T) {
	items := []Item{
		{ID: "a", Weight: 1.5, Features: []float64{1, 2}},
		{ID: "b", Weight: 0, Features: []float64{3, 4}},
	}
	var buf bytes.Buffer
	if err := WriteItemsCSV(&buf, items); err != nil {
		t.Fatal(err)
	}
	back, err := ReadItemsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].ID != "a" || back[1].Weight != 0 || back[0].Features[1] != 2 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestReadItemsCSV(t *testing.T) {
	// Header row is skipped.
	in := "id,weight,x\np1,2.5,0.1\np2,1.0,0.9\n"
	items, err := ReadItemsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items[0].ID != "p1" || items[0].Weight != 2.5 {
		t.Fatalf("parsed %+v", items)
	}
	bad := map[string]string{
		"too-few-fields": "only-id\n",
		"bad-weight":     "h,w\np1,abc\n",
		"bad-feature":    "p1,1,xyz\n",
		"ragged":         "p1,1,2\np2,1\n",
		"negative":       "p1,-3\n",
		"empty":          "",
		"header-only":    "id,weight\n",
	}
	for name, in := range bad {
		if _, err := ReadItemsCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
