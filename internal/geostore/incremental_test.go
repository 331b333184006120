package geostore

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/sparql"
)

// TestIncrementalLoadMatchesBulkLoad loads one store in batches with
// reads in between, so its triple indexes are merged and its R-tree is
// grown by inserts and periodically repacked, and after every batch
// compares it with a fresh store given the same features at once: the
// same window and spatial-join result sets and the same plans. The first
// reads after a batch run concurrently, so under -race they also contend
// for the flush and the R-tree refresh.
func TestIncrementalLoadMatchesBulkLoad(t *testing.T) {
	a, b := joinEntitySets(120, 5)
	var features []Feature
	for i := range a {
		features = append(features,
			Feature{IRI: a[i].IRI, Class: classA, Geometry: a[i].Geometry},
			Feature{IRI: b[i].IRI, Class: classB, Geometry: b[i].Geometry})
	}
	load := func(s *Store, fs []Feature) {
		t.Helper()
		for _, f := range fs {
			if err := s.AddFeature(f); err != nil {
				t.Fatal(err)
			}
		}
	}

	var queries []*sparql.Query
	for _, w := range []geom.Rect{geom.NewRect(0, 0, 400, 400), geom.NewRect(300, 300, 700, 900), geom.NewRect(-50, -50, 1200, 1200)} {
		queries = append(queries, sparql.MustParse(`SELECT ?f WHERE { ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt .
			FILTER(geof:sfIntersects(?wkt, "`+w.WKT()+`"^^geo:wktLiteral)) }`))
	}
	for _, jc := range joinCases {
		queries = append(queries, sparql.MustParse(joinQuery(jc.filter)))
	}
	// answers runs every query, from as many goroutines, and returns each
	// sorted result set followed by its plan.
	answers := func(s *Store) [][]string {
		out := make([][]string, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q *sparql.Query) {
				defer wg.Done()
				res, err := s.Query(q)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				plan, err := s.Explain(q)
				if err != nil {
					t.Errorf("explain %d: %v", i, err)
					return
				}
				rows := rowStrings(res)
				slices.Sort(rows)
				out[i] = append(rows, plan)
			}(i, q)
		}
		wg.Wait()
		return out
	}

	inc := New(ModeIndexed)
	// Against rebulkFraction = 4 these sizes insert twice, repack, insert
	// twice and repack again before the remainder arrives.
	loaded := 0
	for _, n := range []int{40, 4, 5, 3, 6, 6, 10, 1, len(features) - 75} {
		load(inc, features[loaded:loaded+n])
		loaded += n
		fresh := New(ModeIndexed)
		load(fresh, features[:loaded])
		got, want := answers(inc), answers(fresh)
		for i := range queries {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("after %d features, query %d: incremental store answers\n%q\nfresh store\n%q", loaded, i, got[i], want[i])
			}
		}
	}
	m := inc.MemoryStats()
	if m.RTreeBulkLoads < 3 || m.RTreeInsertBuilds < 4 {
		t.Errorf("R-tree refreshes: %d bulk loads and %d insert builds, want at least 3 and 4", m.RTreeBulkLoads, m.RTreeInsertBuilds)
	}
	if m.IndexFlushes != 9 {
		t.Errorf("index flushes = %d, want one per batch (9)", m.IndexFlushes)
	}
	if m.RTreeEntries == 0 || m.Geometries != int64(len(features)) {
		t.Errorf("accounting: %d geometries, %d R-tree entries, want %d geometries", m.Geometries, m.RTreeEntries, len(features))
	}
}
