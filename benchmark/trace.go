package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/endpoint"
	"repro/internal/geom"
	"repro/internal/geostore"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/storage"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Spans of one replayed operation share Op; Parent is
// the span that caused this one (0 for a root). N counts the work the
// call did (rows, triples, literals) where a metric is per unit of work.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part its children cover.
	Self int64 `json:"self_ns"`
	N    int   `json:"n,omitempty"`
}

// tracer keeps spans in memory until the traced run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) *span {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return s
}

// call times fn as a child of parent.
func (t *tracer) call(name string, parent, op int, fn func()) *span {
	id := t.begin(name, parent, op)
	fn()
	return t.end(id)
}

// finish computes self times. Children run one after another inside
// their parent, so the covered part is the sum of their durations.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durations returns the sorted durations of every span with this name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median is the median span duration by name, 0 when the replayed
// operations never made that call.
func (t *tracer) median(name string) time.Duration { return percentile(t.durations(name), 0.5) }

// perUnit is total duration ÷ total N over the spans with this name.
func (t *tracer) perUnit(name string) time.Duration {
	var d, n int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			n += int64(s.N)
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(d / n)
}

// traceRun is the traced run. It builds the store the way eeserve does
// (storage.Open → Recover → SetJournal → LoadNTriples → Build), puts an
// endpoint.Server over it and replays the head of the open-phase
// schedule in due order, calling each layer's public functions on every
// operation's input with a span around each call. It returns per-layer
// metrics; end-to-end metrics never come from here.
func traceRun(cfg *config, ds *dataset, ntPath, runDataDir string, sched *schedule, loads []timedLoad, openP50 time.Duration) (map[string]float64, error) {
	w := cfg.workload
	t := &tracer{t0: time.Now()}
	ctx := context.Background()
	// The first failure of any timed call ends the replay; e is scratch
	// for the calls' own results inside the timed closures.
	var err, e error
	fail := func(op string, e error) {
		if err == nil && e != nil {
			err = fmt.Errorf("%s: %w", op, e)
		}
	}

	// Recovery of what the measured run left behind: boot snapshot plus
	// the WAL of every acknowledged batch.
	setup := t.begin("setup", 0, -1)
	t.call("storage.recover", setup, -1, func() {
		db, e := storage.Open(runDataDir, storage.Options{SyncEvery: 8})
		if e != nil {
			fail("open run data dir", e)
			return
		}
		_, e = db.Recover(rdf.NewStore())
		fail("recover run data dir", e)
		fail("close run data dir", db.Close())
	})
	if err != nil {
		return nil, err
	}

	st := geostore.New(geostore.ModeIndexed)
	var pool *rdf.WorkerPool
	if w.queryWorkers >= 2 {
		pool = rdf.NewWorkerPool(w.queryWorkers)
		st.SetParallel(w.queryWorkers, pool)
	}
	db, err := storage.Open(filepath.Join(cfg.workDir, "trace-data"), storage.Options{SyncEvery: 8})
	if err != nil {
		return nil, err
	}
	defer db.Close() // scratch store in the run's work directory, removed with it
	if _, err := db.Recover(st.RDF()); err != nil {
		return nil, err
	}
	st.RDF().SetJournal(db.Log())
	t.call("geostore.load_ntriples", setup, -1, func() {
		f, e := os.Open(ntPath)
		if e != nil {
			fail("open dataset", e)
			return
		}
		defer f.Close()
		_, e = st.LoadNTriples(f)
		fail("load dataset", e)
	})
	t.call("geostore.build", setup, -1, st.Build)
	fail("commit journal", st.RDF().CommitJournal())

	// The R-tree on its own, over the dataset's bounds.
	bounds := make([]geom.Rect, 0, len(ds.points)+len(ds.parcels)+len(ds.zones))
	for _, p := range ds.points {
		bounds = append(bounds, geom.NewRect(p.at.x, p.at.y, p.at.x, p.at.y))
	}
	for _, polys := range [][]polyFeature{ds.parcels, ds.zones} {
		for _, p := range polys {
			x0, y0, x1, y1 := ringBounds(p.ring)
			bounds = append(bounds, geom.NewRect(x0, y0, x1, y1))
		}
	}
	ids := make([]int64, len(bounds))
	for i := range ids {
		ids[i] = int64(i)
	}
	tree := geom.NewRTree()
	t.call("geom.rtree_bulkload", setup, -1, func() { tree.BulkLoad(bounds, ids) })
	t.end(setup)
	if err != nil {
		return nil, err
	}

	srv := endpoint.New(st, endpoint.Config{Loader: st, LoadToken: loadToken, Workers: pool})
	serve := func(req *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	var matches, analyzedRows int64
	afterLoad := false
	for i := 0; i < sched.head() && err == nil; i++ {
		for len(loads) > 0 && loads[0].offset <= sched.due[i] {
			traceLoad(t, i, loads[0].batch, serve, fail)
			loads, afterLoad = loads[1:], true
		}
		q := sched.ops[i]
		root := t.begin("op", 0, i)
		var pq *sparql.Query
		t.call("sparql.parse", root, i, func() {
			pq, e = sparql.Parse(q.text)
			fail("parse", e)
		})
		if err != nil {
			break
		}
		t.call("sparql.canonical", root, i, func() { _ = pq.Canonical() })

		// The same query twice at one store version: the first call
		// compiles a plan unless this text already ran, the second
		// finds it cached.
		name := "geostore.query_miss"
		if afterLoad {
			name, afterLoad = "geostore.first_query_after_load", false
		}
		_, missesBefore := st.PlanCacheStats()
		var res *sparql.Results
		first := t.call(name, root, i, func() {
			res, e = st.QueryContext(ctx, pq)
			fail("query", e)
		})
		if _, misses := st.PlanCacheStats(); misses == missesBefore && first.Name == "geostore.query_miss" {
			first.Name = "geostore.query_hit"
		} else {
			t.call("geostore.query_hit", root, i, func() {
				_, e = st.QueryContext(ctx, pq)
				fail("query", e)
			})
		}
		if err != nil {
			break
		}
		format, serializeSpan := endpoint.FormatJSON, "endpoint.serialize_json"
		if q.accept == acceptGeoJSON {
			format, serializeSpan = endpoint.FormatGeoJSON, "sextant.serialize_geojson"
		}
		var buf bytes.Buffer
		t.call(serializeSpan, root, i, func() { fail("serialize", endpoint.WriteResults(&buf, format, res, "")) }).N = res.Len()

		switch q.class {
		case classWindow:
			win := geom.NewRect(q.win.x0, q.win.y0, q.win.x1, q.win.y1)
			t.call("geom.rtree_search", root, i, func() { tree.Search(win, func(geom.Rect, int64) bool { return true }) })
		case classSpatialJoin:
		default:
			// The executors side by side on the non-spatial classes;
			// par1 − seq is what the morsel machinery costs at degree 1.
			var plan *sparql.Plan
			t.call("sparql.compile", root, i, func() {
				plan, e = sparql.CompilePlan(st.RDF(), pq, sparql.PlanOpts{})
				fail("compile", e)
			})
			if err != nil {
				break
			}
			t.call("sparql.execute_seq", root, i, func() { _, e = plan.Execute(); fail("execute", e) })
			t.call("sparql.execute_par1", root, i, func() { _, e = plan.ExecuteParallel(sparql.ParallelExec{Degree: 1}); fail("execute", e) })
			t.call("sparql.execute_par2", root, i, func() { _, e = plan.ExecuteParallel(sparql.ParallelExec{Degree: 2}); fail("execute", e) })
		}
		if i%50 == 0 {
			t.call("geostore.query_analyze", root, i, func() {
				r, prof, e := st.QueryAnalyze(ctx, pq)
				fail("analyze", e)
				if e == nil {
					for _, s := range prof.Steps {
						matches += s.Matches
					}
					analyzedRows += int64(r.Len())
				}
			})
		}

		// Last, the whole handler on the same input. The plan is cached
		// by now, so on a result-cache miss the handler's own share is
		// this span minus parse, canonical, query_hit and serialize.
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(q.text))
		req.Header.Set("Content-Type", "application/sparql-query")
		req.Header.Set("Accept", q.accept)
		id := t.begin("endpoint.serve_miss", root, i)
		rec := serve(req)
		s := t.end(id)
		if rec.Header().Get("X-Cache") == "HIT" {
			s.Name = "endpoint.serve_hit"
		}
		if rec.Code != http.StatusOK {
			fail("serve", fmt.Errorf("status %d: %s", rec.Code, rec.Body.String()))
		}
		t.end(root)
	}
	if err != nil {
		return nil, err
	}
	t.finish()
	if err := t.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}

	serveAll := append(t.durations("endpoint.serve_hit"), t.durations("endpoint.serve_miss")...)
	sort.Slice(serveAll, func(i, j int) bool { return serveAll[i] < serveAll[j] })
	serialize := t.median("endpoint.serialize_json") + t.median("sextant.serialize_geojson")
	missSelf := time.Duration(0)
	if miss := t.median("endpoint.serve_miss"); miss > 0 {
		missSelf = miss - t.median("sparql.parse") - t.median("sparql.canonical") - t.median("geostore.query_hit") - serialize
	}
	compile := time.Duration(0)
	if miss := t.median("geostore.query_miss"); miss > 0 {
		compile = miss - t.median("geostore.query_hit")
	}
	m := map[string]float64{
		"endpoint.serve_hit_us":              us(t.median("endpoint.serve_hit")),
		"endpoint.serve_miss_self_us":        us(missSelf),
		"endpoint.serialize_json_us":         us(t.median("endpoint.serialize_json")),
		"endpoint.serialize_ns_per_row":      float64(t.perUnit("endpoint.serialize_json")),
		"sextant.serialize_geojson_us":       us(t.median("sextant.serialize_geojson")),
		"endpoint.load_us_per_ktriple":       us(1000 * t.perUnit("endpoint.load")),
		"sparql.parse_us":                    us(t.median("sparql.parse")),
		"sparql.canonical_us":                us(t.median("sparql.canonical")),
		"geostore.query_miss_us":             us(t.median("geostore.query_miss")),
		"geostore.query_hit_us":              us(t.median("geostore.query_hit")),
		"geostore.compile_us":                us(compile),
		"geostore.first_query_after_load_ms": ms(t.median("geostore.first_query_after_load")),
		"sparql.compile_us":                  us(t.median("sparql.compile")),
		"sparql.execute_seq_us":              us(t.median("sparql.execute_seq")),
		"sparql.execute_par1_us":             us(t.median("sparql.execute_par1")),
		"sparql.execute_par2_us":             us(t.median("sparql.execute_par2")),
		"rdf.matches_per_result":             ratio(float64(matches), float64(analyzedRows)),
		"rdf.scan_us_per_ktriple":            us(1000 * t.perUnit("rdf.scan")),
		"rdf.add_batch_us_per_ktriple":       us(1000 * t.perUnit("rdf.add_batch")),
		"geom.rtree_bulkload_ms":             ms(t.median("geom.rtree_bulkload")),
		"geom.rtree_search_us":               us(t.median("geom.rtree_search")),
		"geom.parse_wkt_ns":                  float64(t.perUnit("geom.parse_wkt")),
		"storage.recover_ms":                 ms(t.median("storage.recover")),
		"loadgen.http_overhead_us":           us(openP50 - percentile(serveAll, 0.5)),
	}
	return m, nil
}

// traceLoad replays one ingest batch layer by layer: the N-Triples
// scanner alone, the index insert alone (into a scratch store with no
// journal), WKT parsing alone, then the whole POST /load handler on the
// real store.
func traceLoad(t *tracer, op int, b *ingestBatch, serve func(*http.Request) *httptest.ResponseRecorder, fail func(string, error)) {
	root := t.begin("load", 0, op)
	t.call("rdf.scan", root, op, func() {
		_, e := rdf.ScanNTriples(bytes.NewReader(b.body), func(rdf.Triple) error { return nil })
		fail("scan batch", e)
	}).N = b.triples()
	triples, _, e := rdf.ReadNTriples(bytes.NewReader(b.body))
	fail("read batch", e)
	t.call("rdf.add_batch", root, op, func() { fail("add batch", rdf.NewStore().AddBatch(triples)) }).N = len(triples)
	var wkt []string
	for _, tr := range triples {
		if tr.O.IsGeometry() {
			wkt = append(wkt, tr.O.Value)
		}
	}
	t.call("geom.parse_wkt", root, op, func() {
		for _, s := range wkt {
			_, e := geom.ParseWKT(s)
			fail("parse WKT", e)
		}
	}).N = len(wkt)
	req := httptest.NewRequest(http.MethodPost, "/load", bytes.NewReader(b.body))
	req.Header.Set("Authorization", "Bearer "+loadToken)
	id := t.begin("endpoint.load", root, op)
	rec := serve(req)
	t.end(id).N = b.triples()
	if rec.Code != http.StatusOK {
		fail("load", fmt.Errorf("status %d: %s", rec.Code, rec.Body.String()))
	}
	t.end(root)
}
