package endpoint_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/endpoint"
	"repro/internal/rdf"
	"repro/internal/telemetry"
)

// TestDebugAuthRequiresToken checks the public listener's /debug/*
// routes 401 without the load token and open up with it (either header
// spelling), while the admin mux serves them with no token at all.
func TestDebugAuthRequiresToken(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{LoadToken: "s3cret"})
	paths := []string{"/debug/queries", "/debug/store", "/debug/cache"}
	for _, p := range paths {
		if rec := get(t, srv, p, nil); rec.Code != 401 {
			t.Errorf("GET %s without token = %d, want 401", p, rec.Code)
		} else if rec.Header().Get("WWW-Authenticate") == "" {
			t.Errorf("GET %s 401 missing WWW-Authenticate", p)
		}
		if rec := get(t, srv, p, map[string]string{"Authorization": "Bearer wrong"}); rec.Code != 401 {
			t.Errorf("GET %s with wrong token = %d, want 401", p, rec.Code)
		}
		if rec := get(t, srv, p, map[string]string{"Authorization": "Bearer s3cret"}); rec.Code != 200 {
			t.Errorf("GET %s with bearer token = %d, want 200", p, rec.Code)
		}
		if rec := get(t, srv, p, map[string]string{"X-Load-Token": "s3cret"}); rec.Code != 200 {
			t.Errorf("GET %s with X-Load-Token = %d, want 200", p, rec.Code)
		}
	}

	// With no token configured there is nothing a client could present:
	// the public routes stay closed and only the admin mux serves them.
	bare := endpoint.New(testStore(t), endpoint.Config{})
	for _, p := range paths {
		if rec := get(t, bare, p, map[string]string{"Authorization": "Bearer anything"}); rec.Code != 401 {
			t.Errorf("GET %s with no token configured = %d, want 401", p, rec.Code)
		}
		if rec := get(t, bare.AdminMux(), p, nil); rec.Code != 200 {
			t.Errorf("admin GET %s = %d, want 200", p, rec.Code)
		}
	}
}

// TestDebugStoreReport checks the /debug/store JSON: triple count,
// memory accounting from the engine, and the storage listing injected
// via Config.StorageStats.
func TestDebugStoreReport(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{
		StorageStats: func() any {
			return map[string]any{"dir": "/tmp/fake", "wal_bytes": 123}
		},
	})
	rec := get(t, srv.AdminMux(), "/debug/store", nil)
	if rec.Code != 200 {
		t.Fatalf("/debug/store = %d (body %q)", rec.Code, rec.Body.String())
	}
	var doc struct {
		Triples      int                    `json:"triples"`
		StoreVersion uint64                 `json:"store_version"`
		Memory       *telemetry.StoreMemory `json:"memory"`
		Storage      struct {
			Dir      string `json:"dir"`
			WALBytes int64  `json:"wal_bytes"`
		} `json:"storage"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/store not JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Triples == 0 || doc.StoreVersion == 0 {
		t.Errorf("triples = %d, store_version = %d; want both > 0", doc.Triples, doc.StoreVersion)
	}
	if doc.Memory == nil {
		t.Fatalf("missing memory accounting:\n%s", rec.Body.String())
	}
	if doc.Memory.DictTerms == 0 || doc.Memory.DictBytes == 0 {
		t.Errorf("dictionary accounting empty: %+v", doc.Memory)
	}
	// A freshly built store may still hold its triples in the pending
	// run (merged lazily on first query); the total must be live either
	// way.
	var indexed int64
	for _, n := range doc.Memory.IndexTriples {
		indexed += n
	}
	if indexed == 0 {
		t.Errorf("index accounting empty: %+v", doc.Memory.IndexTriples)
	}
	if doc.Memory.Geometries == 0 || doc.Memory.RTreeNodes == 0 {
		t.Errorf("geo accounting empty: %+v", doc.Memory)
	}
	if doc.Storage.Dir != "/tmp/fake" || doc.Storage.WALBytes != 123 {
		t.Errorf("storage listing not passed through: %+v", doc.Storage)
	}
}

// TestDebugCacheReport checks /debug/cache reflects the result cache's
// contents and hit accounting after a miss and a hit.
func TestDebugCacheReport(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{})
	for i := 0; i < 2; i++ { // first misses, second hits
		if rec := get(t, srv, sparqlURL(spatialQuery, ""), nil); rec.Code != 200 {
			t.Fatalf("query %d status = %d", i, rec.Code)
		}
	}
	rec := get(t, srv.AdminMux(), "/debug/cache", nil)
	if rec.Code != 200 {
		t.Fatalf("/debug/cache = %d", rec.Code)
	}
	var doc struct {
		Capacity int     `json:"capacity"`
		Entries  int     `json:"entries"`
		Hits     uint64  `json:"hits"`
		Misses   uint64  `json:"misses"`
		HitRatio float64 `json:"hit_ratio"`
		Items    []struct {
			Query        string  `json:"query"`
			Format       string  `json:"format"`
			StoreVersion uint64  `json:"store_version"`
			Rows         int     `json:"rows"`
			Bytes        int     `json:"bytes"`
			AgeSeconds   float64 `json:"age_seconds"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/cache not JSON: %v\n%s", err, rec.Body.String())
	}
	if doc.Capacity != 256 || doc.Entries != 1 || doc.Hits != 1 || doc.Misses != 1 || doc.HitRatio != 0.5 {
		t.Errorf("cache stats = %+v, want capacity 256, 1 entry, 1 hit, 1 miss, ratio 0.5", doc)
	}
	if len(doc.Items) != 1 {
		t.Fatalf("items = %d, want 1:\n%s", len(doc.Items), rec.Body.String())
	}
	it := doc.Items[0]
	if !strings.Contains(it.Query, "SELECT") || strings.Contains(it.Query, "\x00") {
		t.Errorf("item query = %q, want canonical text without the geom-var suffix", it.Query)
	}
	if it.Format != "json" || it.Rows != 2 || it.Bytes == 0 || it.StoreVersion == 0 || it.AgeSeconds < 0 {
		t.Errorf("item = %+v", it)
	}
}

// preexistingSeries are the exact /metrics lines the pre-registry
// handler emitted for a fresh server (testStore engine + worker pool),
// pinned so migrating to the telemetry registry can never rename a
// series, drop a label, or move a bucket boundary under a scraper.
var preexistingSeries = []string{
	"sparql_queries_total 0",
	"sparql_query_errors_total 0",
	`sparql_query_errors_total{kind="parse"} 0`,
	`sparql_query_errors_total{kind="eval"} 0`,
	`sparql_query_errors_total{kind="serialize"} 0`,
	`sparql_query_errors_total{kind="timeout"} 0`,
	"sparql_cache_hits_total 0",
	"sparql_cache_misses_total 0",
	"sparql_rejected_total 0",
	"sparql_timeouts_total 0",
	"sparql_loads_total 0",
	"sparql_load_errors_total 0",
	"sparql_loaded_triples_total 0",
	"sparql_slow_queries_total 0",
	"sparql_exec_rows_total 0",
	"sparql_filter_drops_total 0",
	"sparql_plan_cache_hits_total 0",
	"sparql_plan_cache_misses_total 0",
	"sparql_spatial_join_probes_total 0",
	"sparql_exec_morsels_total 0",
	"sparql_exec_workers_busy 0",
	"sparql_cache_entries 0",
	`sparql_query_duration_seconds_bucket{le="0.0001"} 0`,
	`sparql_query_duration_seconds_bucket{le="0.0005"} 0`,
	`sparql_query_duration_seconds_bucket{le="0.001"} 0`,
	`sparql_query_duration_seconds_bucket{le="0.005"} 0`,
	`sparql_query_duration_seconds_bucket{le="0.01"} 0`,
	`sparql_query_duration_seconds_bucket{le="0.05"} 0`,
	`sparql_query_duration_seconds_bucket{le="0.1"} 0`,
	`sparql_query_duration_seconds_bucket{le="0.5"} 0`,
	`sparql_query_duration_seconds_bucket{le="1"} 0`,
	`sparql_query_duration_seconds_bucket{le="5"} 0`,
	`sparql_query_duration_seconds_bucket{le="+Inf"} 0`,
	"sparql_query_duration_seconds_sum 0",
	"sparql_query_duration_seconds_count 0",
}

// TestMetricsBackwardCompatible proves the registry-backed /metrics is
// a superset of the hand-rolled exposition: every pre-existing series
// line (names, labels, bucket boundaries) is still emitted verbatim,
// and the new exposition passes the format lint.
func TestMetricsBackwardCompatible(t *testing.T) {
	srv := endpoint.New(testStore(t), endpoint.Config{Workers: rdf.NewWorkerPool(2)})
	body := get(t, srv, "/metrics", nil).Body.String()
	for _, line := range preexistingSeries {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("/metrics lost pre-existing series %q", line)
		}
	}
	for _, name := range []string{
		"store_memory_dict_terms", "store_memory_dict_bytes",
		"store_memory_index_triples", "store_memory_index_bytes",
		"store_memory_dedup_entries", "store_memory_geometries",
		"store_memory_rtree_nodes", "store_memory_rtree_entries",
		"store_memory_plan_cache_entries",
	} {
		if !strings.Contains(body, "# TYPE "+name+" gauge\n") {
			t.Errorf("/metrics missing new gauge family %s", name)
		}
	}
	// The memory gauges must carry live values, not zeros: the prepare
	// hook walks the store once per scrape.
	if !strings.Contains(body, `store_memory_index_triples{index="spo"} `) {
		t.Error("/metrics missing labeled store_memory_index_triples series")
	}
	for _, f := range telemetry.LintExposition(body) {
		t.Errorf("exposition lint: %s", f)
	}
}

// TestIndexMaintenanceMetrics follows the "index merge" counters through
// two loads: every first read after a load is one flush, and the R-tree
// is bulk-loaded again while a load is large against it (two features
// onto three) but only inserted into once it is not (one onto five).
func TestIndexMaintenanceMetrics(t *testing.T) {
	st := testStore(t)
	srv := endpoint.New(st, endpoint.Config{Loader: st, LoadToken: "s3cret"})
	auth := map[string]string{"Authorization": "Bearer s3cret"}
	for i, step := range []struct {
		load                   string
		flushes, bulk, inserts int
	}{
		{"", 1, 1, 0},
		{ntFeature(0, 2, 2) + ntFeature(1, 3, 3), 2, 2, 0},
		{ntFeature(2, 4, 4), 3, 2, 1},
	} {
		if step.load != "" {
			if rec := postLoad(srv, step.load, auth); rec.Code != http.StatusOK {
				t.Fatalf("step %d: load status = %d (%s)", i, rec.Code, rec.Body.String())
			}
		}
		if rec := get(t, srv, sparqlURL(spatialQuery, ""), nil); rec.Code != http.StatusOK {
			t.Fatalf("step %d: query status = %d", i, rec.Code)
		}
		body := get(t, srv, "/metrics", nil).Body.String()
		for _, line := range []string{
			"# TYPE store_index_flush_seconds_total counter",
			fmt.Sprintf("store_index_flushes_total %d", step.flushes),
			fmt.Sprintf(`store_rtree_builds_total{kind="bulk"} %d`, step.bulk),
			fmt.Sprintf(`store_rtree_builds_total{kind="insert"} %d`, step.inserts),
		} {
			if !strings.Contains(body, line+"\n") {
				t.Errorf("step %d: /metrics lacks %q", i, line)
			}
		}
	}
}
