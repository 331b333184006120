package endpoint_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/endpoint"
	"repro/internal/geom"
	"repro/internal/geostore"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// testStore builds an indexed store with three point features at known
// coordinates, two of them inside the (0,0)-(10,10) query window.
func testStore(t *testing.T) *geostore.Store {
	t.Helper()
	st := geostore.New(geostore.ModeIndexed)
	for i, p := range []geom.Point{{X: 1, Y: 1}, {X: 5, Y: 5}, {X: 100, Y: 100}} {
		f := geostore.Feature{
			IRI:      fmt.Sprintf("http://extremeearth.eu/feature/t%d", i),
			Class:    geostore.FeatureClass,
			Geometry: p,
		}
		if err := st.AddFeature(f); err != nil {
			t.Fatal(err)
		}
	}
	st.Build()
	return st
}

const spatialQuery = `
	PREFIX ee: <http://extremeearth.eu/ontology#>
	SELECT ?f ?wkt WHERE {
		?f a ee:Feature .
		?f geo:hasGeometry ?g .
		?g geo:asWKT ?wkt .
		FILTER(geof:sfIntersects(?wkt, "POLYGON((0 0, 10 0, 10 10, 0 10, 0 0))"^^geo:wktLiteral))
	}`

func get(t *testing.T, srv http.Handler, target string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func sparqlURL(query string, extra string) string {
	u := "/sparql?query=" + url.QueryEscape(query)
	if extra != "" {
		u += "&" + extra
	}
	return u
}

func TestContentNegotiation(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{})
	cases := []struct {
		name        string
		accept      string
		extra       string
		wantStatus  int
		wantCT      string
		wantBodySub string
	}{
		{"default json", "", "", 200, "application/sparql-results+json", `"head"`},
		{"sparql json", "application/sparql-results+json", "", 200, "application/sparql-results+json", `"bindings"`},
		{"plain json", "application/json", "", 200, "application/sparql-results+json", `"head"`},
		{"csv", "text/csv", "", 200, "text/csv; charset=utf-8", "f,wkt"},
		{"tsv", "text/tab-separated-values", "", 200, "text/tab-separated-values; charset=utf-8", "f\twkt"},
		{"geojson", "application/geo+json", "", 200, "application/geo+json", `"FeatureCollection"`},
		{"browser-style list", "text/html, application/json;q=0.9, */*;q=0.1", "", 200, "application/sparql-results+json", `"head"`},
		{"wildcard", "*/*", "", 200, "application/sparql-results+json", `"head"`},
		{"q=0 range skipped", "application/geo+json;q=0, application/sparql-results+json", "", 200, "application/sparql-results+json", `"head"`},
		{"q=0.0 with spaces skipped", "text/csv ; q=0.0 , text/tab-separated-values", "", 200, "text/tab-separated-values; charset=utf-8", "f\twkt"},
		{"Q=0 case-insensitive", "application/geo+json;Q=0,text/csv", "", 200, "text/csv; charset=utf-8", "f,wkt"},
		{"nonzero q kept", "application/geo+json;q=0.001", "", 200, "application/geo+json", `"FeatureCollection"`},
		{"only q=0 ranges", "application/geo+json;q=0, text/csv;q=0", "", 406, "", ""},
		{"q=0 wildcard", "*/*;q=0", "", 406, "", ""},
		{"unsupported", "application/rdf+xml", "", 406, "", ""},
		{"format param beats accept", "text/csv", "format=geojson", 200, "application/geo+json", `"FeatureCollection"`},
		{"bad format param", "", "format=parquet", 400, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hdr := map[string]string{}
			if tc.accept != "" {
				hdr["Accept"] = tc.accept
			}
			rec := get(t, srv, sparqlURL(spatialQuery, tc.extra), hdr)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %q)", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantCT != "" && rec.Header().Get("Content-Type") != tc.wantCT {
				t.Fatalf("content-type = %q, want %q", rec.Header().Get("Content-Type"), tc.wantCT)
			}
			if tc.wantBodySub != "" && !strings.Contains(rec.Body.String(), tc.wantBodySub) {
				t.Fatalf("body %q missing %q", rec.Body.String(), tc.wantBodySub)
			}
		})
	}
}

func TestSpatialSelectAllFormats(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{})

	t.Run("json", func(t *testing.T) {
		rec := get(t, srv, sparqlURL(spatialQuery, "format=json"), nil)
		var doc struct {
			Head struct {
				Vars []string `json:"vars"`
			} `json:"head"`
			Results struct {
				Bindings []map[string]struct {
					Type     string `json:"type"`
					Value    string `json:"value"`
					Datatype string `json:"datatype"`
				} `json:"bindings"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if len(doc.Head.Vars) != 2 || len(doc.Results.Bindings) != 2 {
			t.Fatalf("vars %v bindings %d, want 2 vars 2 bindings", doc.Head.Vars, len(doc.Results.Bindings))
		}
		b := doc.Results.Bindings[0]
		if b["f"].Type != "uri" || b["wkt"].Type != "literal" || !strings.Contains(b["wkt"].Datatype, "wktLiteral") {
			t.Fatalf("unexpected binding %+v", b)
		}
	})

	t.Run("csv", func(t *testing.T) {
		rec := get(t, srv, sparqlURL(spatialQuery, "format=csv"), nil)
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		if len(lines) != 3 { // header + 2 rows
			t.Fatalf("lines = %d: %q", len(lines), rec.Body.String())
		}
		if strings.TrimSpace(lines[0]) != "f,wkt" {
			t.Fatalf("header = %q", lines[0])
		}
	})

	t.Run("geojson", func(t *testing.T) {
		rec := get(t, srv, sparqlURL(spatialQuery, "format=geojson"), nil)
		var doc struct {
			Type     string `json:"type"`
			Features []struct {
				ID       string `json:"id"`
				Geometry struct {
					Type        string    `json:"type"`
					Coordinates []float64 `json:"coordinates"`
				} `json:"geometry"`
			} `json:"features"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("invalid GeoJSON: %v", err)
		}
		if doc.Type != "FeatureCollection" || len(doc.Features) != 2 {
			t.Fatalf("type %q features %d", doc.Type, len(doc.Features))
		}
		f := doc.Features[0]
		if f.Geometry.Type != "Point" || len(f.Geometry.Coordinates) != 2 {
			t.Fatalf("geometry %+v", f.Geometry)
		}
		if !strings.HasPrefix(f.ID, "http://extremeearth.eu/feature/") {
			t.Fatalf("feature id %q", f.ID)
		}
	})
}

func TestCacheHitMissInvalidation(t *testing.T) {
	st := testStore(t)
	srv := endpoint.New(st, endpoint.Config{})
	target := sparqlURL(spatialQuery, "")

	rec := get(t, srv, target, nil)
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first request: status %d cache %q", rec.Code, rec.Header().Get("X-Cache"))
	}
	first := rec.Body.String()

	// Identical query text: cache hit, identical bytes.
	rec = get(t, srv, target, nil)
	if rec.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second request: cache %q", rec.Header().Get("X-Cache"))
	}
	if rec.Body.String() != first {
		t.Fatal("cached body differs from original")
	}
	if srv.CacheHits() != 1 {
		t.Fatalf("CacheHits = %d, want 1", srv.CacheHits())
	}

	// Same query modulo whitespace/case: normalization still hits.
	squashed := strings.Join(strings.Fields(strings.Replace(spatialQuery, "SELECT", "select", 1)), " ")
	rec = get(t, srv, sparqlURL(squashed, ""), nil)
	if rec.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("normalized request: cache %q", rec.Header().Get("X-Cache"))
	}

	// Reloading the store advances its version: cached entry is stale.
	if err := st.AddFeature(geostore.Feature{
		IRI:      "http://extremeearth.eu/feature/new",
		Class:    geostore.FeatureClass,
		Geometry: geom.Point{X: 2, Y: 2},
	}); err != nil {
		t.Fatal(err)
	}
	st.Build()
	rec = get(t, srv, target, nil)
	if rec.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("post-reload request: cache %q", rec.Header().Get("X-Cache"))
	}
	if rec.Body.String() == first {
		t.Fatal("post-reload body should include the new feature")
	}

	// /metrics exports the counters.
	mrec := get(t, srv, "/metrics", nil)
	for _, want := range []string{"sparql_cache_hits_total 2", "sparql_cache_misses_total 2", "sparql_queries_total 4"} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mrec.Body.String())
		}
	}
}

// TestSpatialJoinMetricAndOffsetPaging drives a variable-variable
// spatial join through the protocol (the probe counter must move) and
// pages a query with OFFSET (pages must not share cache entries).
func TestSpatialJoinMetricAndOffsetPaging(t *testing.T) {
	st := testStore(t)
	srv := endpoint.New(st, endpoint.Config{CacheSize: 16, Loader: st})

	joinQuery := `
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?a ?b WHERE {
			?a geo:hasGeometry ?ga . ?ga geo:asWKT ?g1 .
			?b geo:hasGeometry ?gb . ?gb geo:asWKT ?g2 .
			FILTER(geof:sfIntersects(?g1, ?g2))
		}`
	rec := get(t, srv, sparqlURL(joinQuery, ""), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("join query status %d: %s", rec.Code, rec.Body.String())
	}
	mrec := get(t, srv, "/metrics", nil)
	if !strings.Contains(mrec.Body.String(), "sparql_spatial_join_probes_total") {
		t.Fatalf("/metrics missing sparql_spatial_join_probes_total:\n%s", mrec.Body.String())
	}
	if strings.Contains(mrec.Body.String(), "sparql_spatial_join_probes_total 0\n") {
		t.Fatalf("spatial join probes did not advance:\n%s", mrec.Body.String())
	}

	// OFFSET pagination: page 2 must be a cache miss with different rows.
	base := `
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f WHERE { ?f a ee:Feature . } ORDER BY ?f LIMIT 1`
	p1 := get(t, srv, sparqlURL(base, ""), nil)
	p2 := get(t, srv, sparqlURL(base+" OFFSET 1", ""), nil)
	if p1.Code != http.StatusOK || p2.Code != http.StatusOK {
		t.Fatalf("paging status %d/%d", p1.Code, p2.Code)
	}
	if p2.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("page 2 served from page 1's cache entry")
	}
	if p1.Body.String() == p2.Body.String() {
		t.Fatalf("pages returned identical rows:\n%s", p1.Body.String())
	}
}

// blockingEngine parks every Query until released, signalling entry.
type blockingEngine struct {
	started chan struct{}
	release chan struct{}
}

func (e *blockingEngine) Query(*sparql.Query) (*sparql.Results, error) {
	e.started <- struct{}{}
	<-e.release
	return &sparql.Results{Vars: []string{"x"}}, nil
}
func (e *blockingEngine) Version() uint64 { return 1 }
func (e *blockingEngine) Len() int        { return 0 }

func TestQueryTimeout(t *testing.T) {
	eng := &blockingEngine{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv := endpoint.New(eng, endpoint.Config{QueryTimeout: 20 * time.Millisecond})
	rec := get(t, srv, sparqlURL("SELECT ?x WHERE { ?x ?p ?o . }", ""), nil)
	close(eng.release)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %q)", rec.Code, rec.Body.String())
	}
	mrec := get(t, srv, "/metrics", nil)
	if !strings.Contains(mrec.Body.String(), "sparql_timeouts_total 1") {
		t.Fatalf("/metrics missing timeout count:\n%s", mrec.Body.String())
	}
}

func TestAdmissionControl(t *testing.T) {
	eng := &blockingEngine{started: make(chan struct{}, 1), release: make(chan struct{})}
	srv := endpoint.New(eng, endpoint.Config{MaxInFlight: 1, CacheSize: -1})

	// First request occupies the only slot.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- get(t, srv, sparqlURL("SELECT ?x WHERE { ?x ?p ?o . }", ""), nil) }()
	<-eng.started

	// Second request must be shed, not queued.
	rec := get(t, srv, sparqlURL("SELECT ?y WHERE { ?y ?p ?o . }", ""), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %q)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 response missing Retry-After")
	}

	close(eng.release)
	first := <-done
	if first.Code != 200 {
		t.Fatalf("first request status = %d", first.Code)
	}
	mrec := get(t, srv, "/metrics", nil)
	if !strings.Contains(mrec.Body.String(), "sparql_rejected_total 1") {
		t.Fatalf("/metrics missing rejected count:\n%s", mrec.Body.String())
	}
}

func TestBadRequests(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{})
	cases := []struct {
		name   string
		method string
		target string
		want   int
	}{
		{"missing query", http.MethodGet, "/sparql", 400},
		{"parse error", http.MethodGet, sparqlURL("SELECT WHERE", ""), 400},
		{"bad method", http.MethodDelete, sparqlURL("SELECT ?x WHERE { ?x ?p ?o . }", ""), 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.target, nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("status = %d, want %d", rec.Code, tc.want)
			}
		})
	}
}

func TestPostForms(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{})

	t.Run("form", func(t *testing.T) {
		body := "query=" + url.QueryEscape(spatialQuery)
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"bindings"`) {
			t.Fatalf("status %d body %q", rec.Code, rec.Body.String())
		}
	})

	t.Run("form with body format", func(t *testing.T) {
		body := "query=" + url.QueryEscape(spatialQuery) + "&format=csv"
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/csv") {
			t.Fatalf("status %d content-type %q", rec.Code, rec.Header().Get("Content-Type"))
		}
	})

	t.Run("raw sparql-query body", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(spatialQuery))
		req.Header.Set("Content-Type", "application/sparql-query")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"bindings"`) {
			t.Fatalf("status %d body %q", rec.Code, rec.Body.String())
		}
	})
}

func TestHealthz(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{})
	rec := get(t, srv, "/healthz", nil)
	var doc struct {
		Status  string `json:"status"`
		Triples int    `json:"triples"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Triples == 0 {
		t.Fatalf("healthz = %+v", doc)
	}
}

// TestParallelExecMetrics drives a morsel-parallel engine through the
// endpoint and checks /metrics exports the executor counter and the
// worker-pool gauge.
func TestParallelExecMetrics(t *testing.T) {
	st := testStore(t)
	pool := rdf.NewWorkerPool(8)
	st.SetParallel(4, pool)
	srv := endpoint.New(st, endpoint.Config{CacheSize: -1, Workers: pool})

	rec := get(t, srv, sparqlURL(`SELECT ?s WHERE { ?s ?p ?o . }`, ""), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	body := get(t, srv, "/metrics", nil).Body.String()
	if !strings.Contains(body, "sparql_exec_morsels_total") {
		t.Fatalf("/metrics missing sparql_exec_morsels_total:\n%s", body)
	}
	if strings.Contains(body, "sparql_exec_morsels_total 0\n") {
		t.Fatalf("morsel counter did not advance:\n%s", body)
	}
	if !strings.Contains(body, "sparql_exec_workers_busy 0") {
		t.Fatalf("/metrics missing idle sparql_exec_workers_busy gauge:\n%s", body)
	}
}

// ctxEngine blocks until its context is canceled, proving the endpoint
// threads the per-query deadline into ContextEngine implementations.
type ctxEngine struct{ sawCancel chan struct{} }

func (e *ctxEngine) Query(q *sparql.Query) (*sparql.Results, error) {
	return nil, fmt.Errorf("plain Query must not be used on a ContextEngine")
}
func (e *ctxEngine) QueryContext(ctx context.Context, q *sparql.Query) (*sparql.Results, error) {
	<-ctx.Done()
	close(e.sawCancel)
	return nil, ctx.Err()
}
func (e *ctxEngine) Version() uint64 { return 1 }
func (e *ctxEngine) Len() int        { return 0 }

// TestTimeoutCancelsContextEngine is the endpoint half of the timeout
// regression: the deadline must reach the engine (stopping its morsel
// workers) rather than merely abandoning the goroutine.
func TestTimeoutCancelsContextEngine(t *testing.T) {
	eng := &ctxEngine{sawCancel: make(chan struct{})}
	srv := endpoint.New(eng, endpoint.Config{QueryTimeout: 15 * time.Millisecond, CacheSize: -1})
	rec := get(t, srv, sparqlURL("SELECT ?x WHERE { ?x ?p ?o . }", ""), nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %q)", rec.Code, rec.Body.String())
	}
	select {
	case <-eng.sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("engine never saw the cancellation")
	}
}
