package geostore

import (
	"context"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/sparql"
)

// TestQueryAnalyzeIndexed checks the single-store analyze path: results
// identical to the plain query, with per-step counters populated.
func TestQueryAnalyzeIndexed(t *testing.T) {
	st := New(ModeIndexed)
	loadPoints(t, st, 300)
	st.Build()
	q := sparql.MustParse(SelectionQuery(geom.NewRect(100, 100, 700, 700)))

	plain, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	res, prof, err := st.QueryAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != plain.Len() {
		t.Fatalf("analyzed rows = %d, plain = %d", res.Len(), plain.Len())
	}
	if prof == nil || len(prof.Steps) == 0 {
		t.Fatalf("profile = %+v, want per-step counters", prof)
	}
	if prof.Rows != res.Len() {
		t.Errorf("profile Rows = %d, want %d", prof.Rows, res.Len())
	}
	var elapsed int64
	for _, sp := range prof.Steps {
		elapsed += sp.SelfNs
	}
	if elapsed <= 0 {
		t.Error("profile has no per-step timing")
	}
}

// TestQueryAnalyzeParallel checks morsel-parallel runs report worker
// detail through the geostore path.
func TestQueryAnalyzeParallel(t *testing.T) {
	st := New(ModeIndexed)
	loadPoints(t, st, 300)
	st.Build()
	st.SetParallel(2, nil)
	defer st.SetParallel(1, nil)
	q := sparql.MustParse(SelectionQuery(geom.NewRect(100, 100, 700, 700)))

	res, prof, err := st.QueryAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("expected rows")
	}
	if len(prof.Workers) == 0 {
		t.Fatalf("parallel profile has no worker detail: %+v", prof)
	}
}

// TestQueryAnalyzeNaive checks the legacy evaluator reports an honest
// timing-only profile instead of fabricated step stats.
func TestQueryAnalyzeNaive(t *testing.T) {
	st := New(ModeNaive)
	loadPoints(t, st, 100)
	st.Build()
	q := sparql.MustParse(SelectionQuery(geom.NewRect(0, 0, 1000, 1000)))

	res, prof, err := st.QueryAnalyze(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("expected rows")
	}
	if len(prof.Steps) != 0 {
		t.Errorf("naive profile has %d steps, want 0 (not instrumented)", len(prof.Steps))
	}
	if !strings.Contains(prof.Note, "naive") {
		t.Errorf("naive profile note = %q, want a naive-mode remark", prof.Note)
	}
}
