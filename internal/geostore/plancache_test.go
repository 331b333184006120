package geostore

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

func TestPlanCacheHitsAndInvalidation(t *testing.T) {
	s := New(ModeIndexed)
	loadPoints(t, s, 500)
	s.Build()
	q := sparql.MustParse(SelectionQuery(geom.NewRect(100, 100, 400, 400)))

	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	hits, misses := s.PlanCacheStats()
	if hits != 0 || misses == 0 {
		t.Fatalf("after first query: hits=%d misses=%d, want 0 hits", hits, misses)
	}
	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ = s.PlanCacheStats()
	if hits == 0 {
		t.Fatal("second identical query did not hit the plan cache")
	}

	// A mutation advances the version: the cached plan must not be
	// reused, and the fresh plan must see the new data.
	f := Feature{
		IRI:      "http://example.org/new",
		Class:    FeatureClass,
		Geometry: geom.Point{X: 200, Y: 200},
		Props:    map[string]rdf.Term{},
	}
	if err := s.AddFeature(f); err != nil {
		t.Fatal(err)
	}
	s.Build()
	after, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != first.Len()+1 {
		t.Fatalf("after insert rows = %d, want %d", after.Len(), first.Len()+1)
	}
}

func TestExplainShowsSeededPlan(t *testing.T) {
	s := New(ModeIndexed)
	loadPoints(t, s, 200)
	s.Build()
	q := sparql.MustParse(SelectionQuery(geom.NewRect(100, 100, 400, 400)))
	text, err := s.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seed:", "step 1:", "enforced by spatial index"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
	naive := New(ModeNaive)
	if text, err := naive.Explain(q); err != nil || !strings.Contains(text, "naive") {
		t.Errorf("naive Explain = %q, %v", text, err)
	}
}
