package geostore

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rdf"
)

func loadPoints(t *testing.T, s interface{ AddFeature(Feature) error }, n int) []Feature {
	t.Helper()
	feats := GeneratePointFeatures(n, 42, geom.NewRect(0, 0, 1000, 1000))
	for _, f := range feats {
		if err := s.AddFeature(f); err != nil {
			t.Fatal(err)
		}
	}
	return feats
}

func TestAddFeatureTripleShape(t *testing.T) {
	s := New(ModeIndexed)
	f := Feature{
		IRI:      "http://example.org/f1",
		Class:    FeatureClass,
		Geometry: geom.Point{X: 1, Y: 2},
		Props: map[string]rdf.Term{
			"http://example.org/name": rdf.NewLiteral("field one"),
		},
	}
	if err := s.AddFeature(f); err != nil {
		t.Fatal(err)
	}
	// type + hasGeometry + asWKT + prop = 4 triples
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.NumGeometries() != 1 {
		t.Fatalf("NumGeometries = %d, want 1", s.NumGeometries())
	}
}

func TestAddRejectsBadWKT(t *testing.T) {
	s := New(ModeIndexed)
	err := s.Add(
		rdf.NewIRI("http://example.org/g"),
		rdf.NewIRI(rdf.GeoAsWKT),
		rdf.NewWKTLiteral("POINT (broken"),
	)
	if err == nil {
		t.Fatal("bad WKT accepted")
	}
}

func TestIndexedMatchesNaive(t *testing.T) {
	naive := New(ModeNaive)
	indexed := New(ModeIndexed)
	feats := GeneratePointFeatures(500, 7, geom.NewRect(0, 0, 1000, 1000))
	for _, f := range feats {
		if err := naive.AddFeature(f); err != nil {
			t.Fatal(err)
		}
		if err := indexed.AddFeature(f); err != nil {
			t.Fatal(err)
		}
	}
	indexed.Build()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		window := RandomWindow(rng, geom.NewRect(0, 0, 1000, 1000), 0.05)
		q := SelectionQuery(window)
		rn, err := naive.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := indexed.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		if rn.Len() != ri.Len() {
			t.Fatalf("trial %d: naive %d rows, indexed %d rows", trial, rn.Len(), ri.Len())
		}
		seen := map[string]bool{}
		for _, row := range rn.Rows {
			seen[row["f"].Value] = true
		}
		for _, row := range ri.Rows {
			if !seen[row["f"].Value] {
				t.Fatalf("indexed returned %s not in naive results", row["f"].Value)
			}
		}
	}
}

// TestPartitionedMatchesSingle checks the partitioned store's contract:
// a query whose answer concatenates returns the single store's rows, and
// every other query is refused with a *NotConcatenableError.
func TestPartitionedMatchesSingle(t *testing.T) {
	single := New(ModeIndexed)
	parted := NewPartitioned(4)
	feats := GeneratePointFeatures(400, 11, geom.NewRect(0, 0, 1000, 1000))
	for _, f := range feats {
		if err := single.AddFeature(f); err != nil {
			t.Fatal(err)
		}
		if err := parted.AddFeature(f); err != nil {
			t.Fatal(err)
		}
	}
	single.Build()
	parted.Build()
	if parted.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", parted.NumPartitions())
	}
	selection := SelectionQuery(geom.NewRect(200, 200, 600, 600))
	for _, q := range []string{
		selection,
		`PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f ?v WHERE { ?f ee:value ?v . FILTER(?v < 100) }`,
	} {
		rs, err := single.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := parted.QueryString(q)
		if err != nil {
			t.Fatal(err)
		}
		want, got := rowStrings(rs), rowStrings(rp)
		sort.Strings(want)
		sort.Strings(got)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("partitioned rows %q, single rows %q", got, want)
		}
	}

	for _, tc := range []struct{ name, query string }{
		{"distinct", `SELECT DISTINCT ?t WHERE { ?f a ?t . }`},
		{"order_by", selection + " ORDER BY ?f"},
		{"limit", selection + " LIMIT 7"},
		{"offset", selection + " OFFSET 3"},
		{"count", `SELECT ?t (COUNT(*) AS ?n) WHERE { ?f a ?t . } GROUP BY ?t`},
		{"var-var_join", `SELECT ?a ?b WHERE {
			?a geo:hasGeometry ?ga . ?ga geo:asWKT ?wa .
			?b geo:hasGeometry ?gb . ?gb geo:asWKT ?wb .
			FILTER(geof:sfIntersects(?wa, ?wb)) }`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := parted.QueryString(tc.query)
			var refused *NotConcatenableError
			if !errors.As(err, &refused) {
				t.Fatalf("QueryString = %v rows, %v; want a *NotConcatenableError", res, err)
			}
		})
	}
}

func TestMultiPolygonSelection(t *testing.T) {
	s := New(ModeIndexed)
	feats := GenerateMultiPolygonFeatures(100, 2, 32, 13, geom.NewRect(0, 0, 1000, 1000))
	for _, f := range feats {
		if err := s.AddFeature(f); err != nil {
			t.Fatal(err)
		}
	}
	s.Build()
	res, err := s.QueryString(SelectionQuery(geom.NewRect(0, 0, 1000, 1000)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 100 {
		t.Fatalf("full-extent selection = %d rows, want 100", res.Len())
	}
	// verify vertex complexity knob
	mp := feats[0].Geometry.(geom.MultiPolygon)
	if got := mp.NumVertices(); got != 64 {
		t.Errorf("NumVertices = %d, want 64", got)
	}
}

func TestQueryWithoutSpatialFilter(t *testing.T) {
	s := New(ModeIndexed)
	loadPoints(t, s, 50)
	res, err := s.QueryString(`
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f WHERE { ?f a ee:Feature . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 50 {
		t.Fatalf("rows = %d, want 50", res.Len())
	}
}

func TestQueryCombinedSpatialAndAttribute(t *testing.T) {
	s := New(ModeIndexed)
	loadPoints(t, s, 300)
	s.Build()
	q := fmt.Sprintf(`
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f ?v WHERE {
			?f a ee:Feature .
			?f geo:hasGeometry ?g .
			?g geo:asWKT ?wkt .
			?f ee:value ?v .
			FILTER(geof:sfIntersects(?wkt, "%s"^^geo:wktLiteral))
			FILTER(?v < 100)
		}`, geom.NewRect(0, 0, 500, 500).WKT())
	res, err := s.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	// validate against naive
	n := New(ModeNaive)
	loadPoints(t, n, 300)
	resN, err := n.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != resN.Len() {
		t.Fatalf("indexed %d rows, naive %d rows", res.Len(), resN.Len())
	}
	for _, row := range res.Rows {
		v, err := row["v"].Int()
		if err != nil || v >= 100 {
			t.Errorf("attribute filter leaked: v=%v err=%v", v, err)
		}
	}
}

func TestEmptyWindowSelection(t *testing.T) {
	s := New(ModeIndexed)
	loadPoints(t, s, 100)
	s.Build()
	res, err := s.QueryString(SelectionQuery(geom.NewRect(5000, 5000, 6000, 6000)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("out-of-extent window returned %d rows", res.Len())
	}
}

func TestIncrementalBuild(t *testing.T) {
	s := New(ModeIndexed)
	loadPoints(t, s, 20)
	s.Build()
	// Add more features after building; queries must see them.
	f := Feature{
		IRI:      "http://example.org/late",
		Class:    FeatureClass,
		Geometry: geom.Point{X: 100, Y: 100},
	}
	if err := s.AddFeature(f); err != nil {
		t.Fatal(err)
	}
	res, err := s.QueryString(SelectionQuery(geom.NewRect(99, 99, 101, 101)))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row["f"].Value == "http://example.org/late" {
			found = true
		}
	}
	if !found {
		t.Error("feature added after Build not visible to queries")
	}
}

func TestWithinQuery(t *testing.T) {
	s := New(ModeIndexed)
	if err := s.AddFeature(Feature{
		IRI: "http://example.org/in", Class: FeatureClass,
		Geometry: geom.Polygon{Shell: geom.Ring{
			{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}, {X: 1, Y: 2}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddFeature(Feature{
		IRI: "http://example.org/straddle", Class: FeatureClass,
		Geometry: geom.Polygon{Shell: geom.Ring{
			{X: 8, Y: 8}, {X: 12, Y: 8}, {X: 12, Y: 12}, {X: 8, Y: 12}}},
	}); err != nil {
		t.Fatal(err)
	}
	s.Build()
	q := `
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f WHERE {
			?f geo:hasGeometry ?g .
			?g geo:asWKT ?wkt .
			FILTER(geof:sfWithin(?wkt, "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"^^geo:wktLiteral))
		}`
	res, err := s.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0]["f"].Value != "http://example.org/in" {
		t.Fatalf("within query rows: %v", res.Rows)
	}
}

func TestModeString(t *testing.T) {
	if ModeIndexed.String() != "indexed" || ModeNaive.String() != "naive" {
		t.Error("Mode.String mismatch")
	}
}

func TestSelectionCountsScaleWithWindow(t *testing.T) {
	// Sanity check of the workload generator: a window of a of the extent
	// should select roughly that fraction of uniform points.
	s := New(ModeIndexed)
	loadPoints(t, s, 2000)
	s.Build()
	res, err := s.QueryString(SelectionQuery(geom.NewRect(0, 0, 500, 500))) // quarter of extent
	if err != nil {
		t.Fatal(err)
	}
	got := res.Len()
	if got < 350 || got > 650 {
		t.Errorf("quarter-extent selection = %d of 2000, want ~500", got)
	}
}
