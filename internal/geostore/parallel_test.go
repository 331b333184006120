package geostore

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// parallelTestQueries exercise every indexed execution path under the
// morsel-driven executor: plain scans and joins, pushed filters,
// DISTINCT, aggregates, ORDER BY/LIMIT/OFFSET, R-tree-seeded spatial
// selection with in-pipeline refiners, and variable-variable spatial
// join probes.
var parallelTestQueries = []string{
	`PREFIX ee: <http://extremeearth.eu/ontology#>
	 SELECT ?f WHERE { ?f a ee:Feature . }`,
	`PREFIX ee: <http://extremeearth.eu/ontology#>
	 SELECT ?f ?wkt WHERE {
		?f a ee:Feature . ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt .
	 } ORDER BY ?wkt LIMIT 25 OFFSET 5`,
	`SELECT DISTINCT ?p WHERE { ?s ?p ?o . }`,
	`PREFIX ee: <http://extremeearth.eu/ontology#>
	 SELECT (COUNT(*) AS ?n) WHERE { ?f a ee:Feature . ?f geo:hasGeometry ?g . }`,
	`PREFIX ee: <http://extremeearth.eu/ontology#>
	 SELECT ?f WHERE {
		?f a ee:Feature . ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt .
		FILTER(geof:sfIntersects(?wkt, "POLYGON ((0 0, 600 0, 600 600, 0 600, 0 0))"^^geo:wktLiteral))
	 }`,
	`PREFIX ee: <http://extremeearth.eu/ontology#>
	 SELECT ?a ?b WHERE {
		?a geo:hasGeometry ?ga . ?ga geo:asWKT ?wa .
		?b geo:hasGeometry ?gb . ?gb geo:asWKT ?wb .
		FILTER(geof:distance(?wa, ?wb) < 15)
	 } LIMIT 40`,
}

func rowStrings(r *sparql.Results) []string {
	out := make([]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		var b strings.Builder
		for _, v := range r.Vars {
			b.WriteString(row[v].String())
			b.WriteByte('\x1f')
		}
		out = append(out, b.String())
	}
	return out
}

// TestParallelMatchesSequential runs every query on two identically
// loaded indexed stores — one sequential, one morsel-parallel — and
// requires byte-identical results (the parallel sinks reduce in morsel
// order, which is the sequential stream order).
func TestParallelMatchesSequential(t *testing.T) {
	seq := New(ModeIndexed)
	par := New(ModeIndexed)
	loadPoints(t, seq, 400)
	loadPoints(t, par, 400)
	seq.Build()
	par.Build()
	// An explicit degree: NumCPU can be 1 (which would disable the
	// parallel path); oversubscribing cores only interleaves goroutines.
	par.SetParallel(max(4, runtime.NumCPU()), nil)

	for i, qs := range parallelTestQueries {
		want, err := seq.QueryString(qs)
		if err != nil {
			t.Fatalf("query %d sequential: %v", i, err)
		}
		got, err := par.QueryString(qs)
		if err != nil {
			t.Fatalf("query %d parallel: %v", i, err)
		}
		w, g := rowStrings(want), rowStrings(got)
		if len(w) != len(g) {
			t.Fatalf("query %d: rows = %d, want %d", i, len(g), len(w))
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("query %d row %d:\n got %q\nwant %q", i, j, g[j], w[j])
			}
		}
	}
	if par.ExecStats() == 0 {
		t.Fatal("parallel store dispatched no morsels")
	}
	if seq.ExecStats() != 0 {
		t.Fatal("sequential store dispatched morsels")
	}
}

// TestParallelQueryTimeout is the regression test for timeout
// cancellation: a cartesian blow-up (millions of pipeline rows) must be
// stopped promptly by a context deadline instead of burning all workers
// to completion, because cancellation is polled at morsel dispatch and
// periodically inside each morsel's pipeline.
func TestParallelQueryTimeout(t *testing.T) {
	st := New(ModeIndexed)
	loadPoints(t, st, 3000)
	st.Build()
	st.SetParallel(2, nil)

	for _, qs := range []string{
		`PREFIX ee: <http://extremeearth.eu/ontology#>
		 SELECT (COUNT(*) AS ?n) WHERE { ?a a ee:Feature . ?b a ee:Feature . ?c geo:asWKT ?w . }`,
		// The same explosion with every row filtered out before the
		// final emit: cancellation must be polled on pipeline
		// extensions, not only on emitted rows.
		`PREFIX ee: <http://extremeearth.eu/ontology#>
		 SELECT ?a WHERE { ?a a ee:Feature . ?b a ee:Feature . ?c geo:asWKT ?w .
			FILTER(?w = "nope") }`,
	} {
		q, err := sparql.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		start := time.Now()
		_, err = st.QueryContext(ctx, q)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		// The full cross product is billions of rows; finishing anywhere
		// near the deadline proves the workers actually stopped.
		if elapsed > 5*time.Second {
			t.Fatalf("timed-out query ran for %v", elapsed)
		}
	}
}

// TestParallelExplainAnnotation checks Explain reports the degree and
// the chosen split on parallel stores.
func TestParallelExplainAnnotation(t *testing.T) {
	st := New(ModeIndexed)
	loadPoints(t, st, 50)
	st.Build()
	st.SetParallel(4, nil)

	q, err := sparql.Parse(`PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f WHERE { ?f a ee:Feature . }`)
	if err != nil {
		t.Fatal(err)
	}
	text, err := st.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "workers=4") {
		t.Fatalf("Explain missing workers=4:\n%s", text)
	}
	if !strings.Contains(text, "split=first-step range") {
		t.Fatalf("Explain missing split description:\n%s", text)
	}

	spatial, err := sparql.Parse(SelectionQuery(geom.NewRect(0, 0, 500, 500)))
	if err != nil {
		t.Fatal(err)
	}
	text, err = st.Explain(spatial)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "split=sorted seed stream") {
		t.Fatalf("Explain missing seed split:\n%s", text)
	}
}

// TestParallelGateDegradation checks a saturated worker gate degrades
// execution to fewer workers without affecting results.
func TestParallelGateDegradation(t *testing.T) {
	st := New(ModeIndexed)
	loadPoints(t, st, 200)
	st.Build()
	gate := rdf.NewWorkerPool(0) // no extra workers ever admitted
	st.SetParallel(8, gate)

	res, err := st.QueryString(`PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f WHERE { ?f a ee:Feature . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 200 {
		t.Fatalf("rows = %d, want 200", res.Len())
	}
	if gate.Busy() != 0 {
		t.Fatalf("gate busy = %d after query", gate.Busy())
	}
}
