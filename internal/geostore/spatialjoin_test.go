package geostore

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/interlink"
	"repro/internal/sparql"
)

// The spatial-join tests verify that variable-variable geof predicates
// run as index spatial joins (not silent cartesian scans) and agree with
// the legacy oracle and with interlink's ground-truth harness.

const (
	classA = "http://example.org/A"
	classB = "http://example.org/B"
)

// joinEntitySets generates two rectangle-entity sets with overlapping
// extents (so joins have hits) using the interlink harness shapes.
func joinEntitySets(n int, seed int64) (a, b []interlink.Entity) {
	rng := rand.New(rand.NewSource(seed))
	gen := func(prefix string) []interlink.Entity {
		out := make([]interlink.Entity, n)
		for i := 0; i < n; i++ {
			x := rng.Float64() * 1000
			y := rng.Float64() * 1000
			s := 20 + rng.Float64()*80
			out[i] = interlink.Entity{
				IRI:      fmt.Sprintf("http://example.org/%s/%d", prefix, i),
				Geometry: geom.NewRect(x, y, x+s, y+s),
			}
		}
		return out
	}
	return gen("a"), gen("b")
}

// loadJoinFeatures loads the two entity sets as typed features into any
// store exposing AddFeature.
func loadJoinFeatures(t *testing.T, add func(Feature) error, a, b []interlink.Entity) {
	t.Helper()
	for _, e := range a {
		if err := add(Feature{IRI: e.IRI, Class: classA, Geometry: e.Geometry}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range b {
		if err := add(Feature{IRI: e.IRI, Class: classB, Geometry: e.Geometry}); err != nil {
			t.Fatal(err)
		}
	}
}

func joinQuery(filter string) string {
	return fmt.Sprintf(`SELECT ?a ?b WHERE {
		?a a <%s> . ?a geo:hasGeometry ?ga . ?ga geo:asWKT ?g1 .
		?b a <%s> . ?b geo:hasGeometry ?gb . ?gb geo:asWKT ?g2 .
		FILTER(%s)
	}`, classA, classB, filter)
}

// pairSet renders ?a/?b result rows as a sorted slice of "a|b" keys.
func pairSet(t *testing.T, res *sparql.Results) []string {
	t.Helper()
	out := make([]string, 0, res.Len())
	for _, row := range res.Rows {
		out = append(out, row["a"].Value+"|"+row["b"].Value)
	}
	sort.Strings(out)
	return out
}

// linkSet renders interlink ground-truth links in the same key space.
func linkSet(links []interlink.Link) []string {
	out := make([]string, 0, len(links))
	for _, l := range links {
		out = append(out, l.Source+"|"+l.Target)
	}
	sort.Strings(out)
	return out
}

func diffSets(t *testing.T, tag string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %q, want %q", tag, i, got[i], want[i])
		}
	}
}

// joinCases are (filter, interlink relation) pairs covering the geof
// predicates and both distance-join spellings.
var joinCases = []struct {
	name   string
	filter string
	cfg    interlink.Config
}{
	{"intersects", "geof:sfIntersects(?g1, ?g2)",
		interlink.Config{Relation: interlink.RelIntersects}},
	{"contains", "geof:sfContains(?g1, ?g2)",
		interlink.Config{Relation: interlink.RelContains}},
	{"within", "geof:sfWithin(?g1, ?g2)",
		interlink.Config{Relation: interlink.RelWithin}},
	{"distance_le", "geof:distance(?g1, ?g2) <= 60",
		interlink.Config{Relation: interlink.RelNear, Distance: 60}},
}

// TestSpatialJoinMatchesGroundTruth is the property test: the index
// spatial join must return exactly the naive cross-product link set.
func TestSpatialJoinMatchesGroundTruth(t *testing.T) {
	for _, seed := range []int64{3, 7} {
		a, b := joinEntitySets(50, seed)
		single := New(ModeIndexed)
		loadJoinFeatures(t, single.AddFeature, a, b)
		single.Build()

		for _, tc := range joinCases {
			truth, _ := interlink.DiscoverNaive(a, b, tc.cfg)
			want := linkSet(truth)
			qs := joinQuery(tc.filter)

			res, err := single.QueryString(qs)
			if err != nil {
				t.Fatalf("seed %d %s: indexed: %v", seed, tc.name, err)
			}
			diffSets(t, fmt.Sprintf("seed %d %s indexed", seed, tc.name), pairSet(t, res), want)
		}
	}
}

// TestSpatialJoinStrictDistance checks the strict (<) distance join
// against the legacy oracle, which evaluates the comparison generically.
func TestSpatialJoinStrictDistance(t *testing.T) {
	a, b := joinEntitySets(40, 11)
	indexed := New(ModeIndexed)
	naive := New(ModeNaive)
	loadJoinFeatures(t, indexed.AddFeature, a, b)
	loadJoinFeatures(t, naive.AddFeature, a, b)
	indexed.Build()

	qs := joinQuery("geof:distance(?g1, ?g2) < 45")
	got, err := indexed.QueryString(qs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.QueryString(qs)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, "strict distance", pairSet(t, got), pairSet(t, want))
	if got.Len() == 0 {
		t.Fatal("strict distance join returned no rows; test data too sparse")
	}
}

// TestSpatialJoinModifiers runs join queries with COUNT, DISTINCT,
// ORDER BY, OFFSET and LIMIT through the indexed store against the
// naive oracle.
func TestSpatialJoinModifiers(t *testing.T) {
	a, b := joinEntitySets(40, 5)
	indexed := New(ModeIndexed)
	naive := New(ModeNaive)
	loadJoinFeatures(t, indexed.AddFeature, a, b)
	loadJoinFeatures(t, naive.AddFeature, a, b)
	indexed.Build()

	count := fmt.Sprintf(`SELECT (COUNT(*) AS ?n) WHERE {
		?a a <%s> . ?a geo:hasGeometry ?ga . ?ga geo:asWKT ?g1 .
		?b a <%s> . ?b geo:hasGeometry ?gb . ?gb geo:asWKT ?g2 .
		FILTER(geof:sfIntersects(?g1, ?g2))
	}`, classA, classB)
	wantCount, err := naive.QueryString(count)
	if err != nil {
		t.Fatal(err)
	}
	res, err := indexed.QueryString(count)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0]["n"].Value != wantCount.Rows[0]["n"].Value {
		t.Fatalf("COUNT = %v, want %v", res.Rows[0]["n"], wantCount.Rows[0]["n"])
	}

	ordered := joinQuery("geof:sfIntersects(?g1, ?g2)") + " ORDER BY ?a OFFSET 3 LIMIT 5"
	want, err := naive.QueryString(ordered)
	if err != nil {
		t.Fatal(err)
	}
	res, err = indexed.QueryString(ordered)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != want.Len() {
		t.Fatalf("ORDER/OFFSET/LIMIT rows = %d, want %d", res.Len(), want.Len())
	}
	for i := range res.Rows {
		if res.Rows[i]["a"].Value != want.Rows[i]["a"].Value {
			t.Fatalf("row %d ?a = %s, want %s", i, res.Rows[i]["a"].Value, want.Rows[i]["a"].Value)
		}
	}
}

// TestSpatialJoinExplain verifies the join strategy is visible: index
// joins announce the probe step, unaccelerable spatial predicates warn
// about the cartesian degradation.
func TestSpatialJoinExplain(t *testing.T) {
	st := New(ModeIndexed)
	a, b := joinEntitySets(5, 1)
	loadJoinFeatures(t, st.AddFeature, a, b)
	st.Build()

	q := sparql.MustParse(joinQuery("geof:sfIntersects(?g1, ?g2)"))
	text, err := st.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spatial index join", "R-tree probe", "R-tree index spatial join"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}

	// Under OR the predicate is not extractable: the plan must say so.
	q2 := sparql.MustParse(joinQuery(`geof:sfIntersects(?g1, ?g2) || geof:sfWithin(?g1, ?g2)`))
	text2, err := st.Explain(q2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text2, "NOT index-accelerated") {
		t.Fatalf("Explain does not flag the cartesian degradation:\n%s", text2)
	}

	// Naive mode names its strategy too.
	naive := New(ModeNaive)
	text3, err := naive.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text3, "cartesian") {
		t.Fatalf("naive Explain does not mention the cartesian strategy:\n%s", text3)
	}
}

// TestSpatialJoinProbeCounter checks the /metrics-backing counter moves.
func TestSpatialJoinProbeCounter(t *testing.T) {
	st := New(ModeIndexed)
	a, b := joinEntitySets(10, 2)
	loadJoinFeatures(t, st.AddFeature, a, b)
	st.Build()
	if _, err := st.QueryString(joinQuery("geof:sfIntersects(?g1, ?g2)")); err != nil {
		t.Fatal(err)
	}
	if st.SpatialJoinStats() == 0 {
		t.Fatal("SpatialJoinStats did not advance after an index spatial join")
	}
}

// TestSpatialJoinWithWindowFilter combines a var-const window seed with
// a var-var join in one query: the seed restricts the left side, the
// probe generates the right side.
func TestSpatialJoinWithWindowFilter(t *testing.T) {
	a, b := joinEntitySets(40, 9)
	indexed := New(ModeIndexed)
	naive := New(ModeNaive)
	loadJoinFeatures(t, indexed.AddFeature, a, b)
	loadJoinFeatures(t, naive.AddFeature, a, b)
	indexed.Build()

	window := geom.NewRect(0, 0, 500, 500)
	qs := fmt.Sprintf(`SELECT ?a ?b WHERE {
		?a a <%s> . ?a geo:hasGeometry ?ga . ?ga geo:asWKT ?g1 .
		?b a <%s> . ?b geo:hasGeometry ?gb . ?gb geo:asWKT ?g2 .
		FILTER(geof:sfIntersects(?g1, "%s"^^geo:wktLiteral))
		FILTER(geof:sfIntersects(?g1, ?g2))
	}`, classA, classB, window.WKT())
	got, err := indexed.QueryString(qs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naive.QueryString(qs)
	if err != nil {
		t.Fatal(err)
	}
	diffSets(t, "seed+join", pairSet(t, got), pairSet(t, want))
	if got.Len() == 0 {
		t.Fatal("seed+join returned no rows; test data too sparse")
	}
}

// TestSpatialJoinProbeUnderWriter pins the probe's lock discipline. With
// a window filter on each side, the second side's refiner runs inside
// the probe's yield; a probe that kept the store's read lock across
// yield took it recursively, and a writer queued in between (an Add of
// a geometry, or another query's Build) deadlocked the store.
func TestSpatialJoinProbeUnderWriter(t *testing.T) {
	a, b := joinEntitySets(40, 9)
	st := New(ModeIndexed)
	loadJoinFeatures(t, st.AddFeature, a, b)
	st.Build()
	window := geom.NewRect(0, 0, 600, 600)
	qs := fmt.Sprintf(`SELECT ?a ?b WHERE {
		?a a <%s> . ?a geo:hasGeometry ?ga . ?ga geo:asWKT ?g1 .
		?b a <%s> . ?b geo:hasGeometry ?gb . ?gb geo:asWKT ?g2 .
		FILTER(geof:sfIntersects(?g1, "%s"^^geo:wktLiteral))
		FILTER(geof:sfIntersects(?g2, "%s"^^geo:wktLiteral))
		FILTER(geof:sfIntersects(?g1, ?g2))
	}`, classA, classB, window.WKT(), window.WKT())
	want, err := st.QueryString(qs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("query returned no rows; test data too sparse")
	}
	if text, err := st.Explain(sparql.MustParse(qs)); err != nil || !strings.Contains(text, "spatial refine") {
		t.Fatalf("the ?g2 window filter is not a pushed refiner (%v):\n%s", err, text)
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.mu.Lock()
			st.mu.Unlock() //nolint:staticcheck // an empty critical section queues a writer
		}
	}()
	queriesDone := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			res, err := st.QueryString(qs)
			if err != nil {
				queriesDone <- err
				return
			}
			if res.Len() != want.Len() {
				queriesDone <- fmt.Errorf("query %d: %d rows, want %d", i, res.Len(), want.Len())
				return
			}
		}
		queriesDone <- nil
	}()
	select {
	case err := <-queriesDone:
		close(stop)
		<-writerDone
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("spatial-join queries deadlocked against a queued writer")
	}
}
