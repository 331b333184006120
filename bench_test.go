// Package repro holds the repository-level benchmark harness: one
// benchmark group per experiment E1–E15 (see EXPERIMENTS.md). These
// benchmarks measure the experiment kernels; the full parameter sweeps
// with formatted tables are produced by cmd/eebench.
package repro

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalogue"
	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/dl/datasets"
	"repro/internal/endpoint"
	"repro/internal/experiments"
	"repro/internal/federate"
	"repro/internal/geom"
	"repro/internal/geostore"
	"repro/internal/geotriples"
	"repro/internal/hopsfs"
	"repro/internal/interlink"
	"repro/internal/kvstore"
	"repro/internal/pcdss"
	"repro/internal/promet"
	"repro/internal/raster"
	"repro/internal/rdf"
	"repro/internal/seaice"
	"repro/internal/sentinel"
	"repro/internal/sparql"
	"repro/internal/storage"
	"repro/internal/storage/vfs"
	"repro/internal/telemetry"
	"repro/internal/trainingset"
)

var benchExtent = geom.NewRect(0, 0, 10000, 10000)

// --- E1: point selections ---

func pointStore(b *testing.B, mode geostore.Mode, n int) *geostore.Store {
	b.Helper()
	st := geostore.New(mode)
	for _, f := range geostore.GeneratePointFeatures(n, 42, benchExtent) {
		if err := st.AddFeature(f); err != nil {
			b.Fatal(err)
		}
	}
	st.Build()
	return st
}

func benchSelection(b *testing.B, query func(string) (interface{ Len() int }, error)) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	windows := make([]string, 16)
	for i := range windows {
		windows[i] = geostore.SelectionQuery(geostore.RandomWindow(rng, benchExtent, 0.01))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query(windows[i%len(windows)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_PointSelection_Naive(b *testing.B) {
	st := pointStore(b, geostore.ModeNaive, 10000)
	benchSelection(b, func(q string) (interface{ Len() int }, error) { return st.QueryString(q) })
}

func BenchmarkE1_PointSelection_Indexed(b *testing.B) {
	st := pointStore(b, geostore.ModeIndexed, 10000)
	benchSelection(b, func(q string) (interface{ Len() int }, error) { return st.QueryString(q) })
}

func BenchmarkE1_PointSelection_Partitioned(b *testing.B) {
	ps := geostore.NewPartitioned(4)
	for _, f := range geostore.GeneratePointFeatures(10000, 42, benchExtent) {
		if err := ps.AddFeature(f); err != nil {
			b.Fatal(err)
		}
	}
	ps.Build()
	benchSelection(b, func(q string) (interface{ Len() int }, error) { return ps.QueryString(q) })
}

// --- E2: multi-polygon complexity ---

func benchMultiPolygon(b *testing.B, mode geostore.Mode, vertices int) {
	st := geostore.New(mode)
	for _, f := range geostore.GenerateMultiPolygonFeatures(1000, 2, vertices/2, 11, benchExtent) {
		if err := st.AddFeature(f); err != nil {
			b.Fatal(err)
		}
	}
	st.Build()
	benchSelection(b, func(q string) (interface{ Len() int }, error) { return st.QueryString(q) })
}

func BenchmarkE2_MultiPolygon64_Naive(b *testing.B)   { benchMultiPolygon(b, geostore.ModeNaive, 64) }
func BenchmarkE2_MultiPolygon64_Indexed(b *testing.B) { benchMultiPolygon(b, geostore.ModeIndexed, 64) }
func BenchmarkE2_MultiPolygon512_Naive(b *testing.B)  { benchMultiPolygon(b, geostore.ModeNaive, 512) }
func BenchmarkE2_MultiPolygon512_Indexed(b *testing.B) {
	benchMultiPolygon(b, geostore.ModeIndexed, 512)
}

// --- E3: information extraction ---

func BenchmarkE3_InformationExtraction(b *testing.B) {
	platform := core.NewPlatform(4, 4)
	train := datasets.EuroSATVectors(4000, 71)
	net, _ := core.TrainLandCoverClassifier(dl.SingleWorker{}, train, 6, 1, 71)
	scenes := core.GenerateSceneProducts(2, 48, 72, benchExtent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := platform.ExtractInformation(scenes, net)
		if res.Ratio < 0.3 {
			b.Fatalf("ratio = %v", res.Ratio)
		}
	}
}

// --- E4: distributed training ---

func benchTraining(b *testing.B, s dl.Strategy, workers int) {
	base := datasets.EuroSATVectors(4000, 17)
	spec := dl.ModelSpec{Arch: dl.ArchMLP, In: 13, Hidden: 128, Classes: 10, Seed: 17}
	cfg := dl.TrainConfig{Epochs: 1, BatchSize: 256, LR: 0.2, Momentum: 0.9, Workers: workers, Seed: 17}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := &dl.Dataset{X: base.X.Clone(), Y: append([]int(nil), base.Y...), Classes: base.Classes}
		s.Train(spec, ds, cfg)
	}
}

func BenchmarkE4_Train_Single(b *testing.B)       { benchTraining(b, dl.SingleWorker{}, 1) }
func BenchmarkE4_Train_AllReduce4(b *testing.B)   { benchTraining(b, dl.AllReduce{}, 4) }
func BenchmarkE4_Train_ParamServer4(b *testing.B) { benchTraining(b, dl.ParameterServer{}, 4) }

// --- E5: EuroSAT classification ---

func BenchmarkE5_EuroSAT_CentroidPredict(b *testing.B) {
	ds := datasets.EuroSATVectors(4000, 21)
	train, test := ds.Split(0.8)
	nc := dl.FitNearestCentroid(train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc.Predict(test.X)
	}
}

func BenchmarkE5_EuroSAT_MLPPredict(b *testing.B) {
	ds := datasets.EuroSATVectors(4000, 21)
	train, test := ds.Split(0.8)
	spec := dl.ModelSpec{Arch: dl.ArchMLP, In: 13, Hidden: 64, Classes: 10, Seed: 21}
	net, _ := dl.SingleWorker{}.Train(spec, train, dl.TrainConfig{Epochs: 3, Seed: 21})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(test.X)
	}
}

func BenchmarkE5_EuroSAT_CNNTrainStep(b *testing.B) {
	patch := datasets.EuroSATPatches(256, 8, 22)
	spec := dl.ModelSpec{Arch: dl.ArchCNN, In: 13, PatchH: 8, PatchW: 8, Hidden: 32, Classes: 10, Seed: 22}
	net := spec.Build()
	x, y := patch.Batch(0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainStep(x, y)
	}
}

// --- E6: training set generation ---

func BenchmarkE6_TrainingSetGen(b *testing.B) {
	grid := raster.NewGrid(benchExtent.Min, benchExtent.Width()/200, 200, 200)
	layers := trainingset.GenerateCartography(benchExtent, 100, 23)
	truth := trainingset.Rasterize(layers, grid)
	scene := sentinel.GenerateS2Scene(truth, 24)
	cfg := trainingset.HarvestConfig{SamplesPerFeature: 50, Workers: 4, Seed: 25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, _ := trainingset.Harvest(layers, scene, cfg)
		if ds.Len() == 0 {
			b.Fatal("no samples")
		}
	}
}

// --- E7: GeoTriples ---

func benchGeoTriples(b *testing.B, workers int) {
	src := benchFieldSource(5000)
	m := &geotriples.Mapping{
		SubjectTemplate: "http://extremeearth.eu/field/{id}",
		Class:           "http://extremeearth.eu/ontology#Field",
		POMs: []geotriples.PredicateObjectMap{
			{Predicate: "http://extremeearth.eu/ontology#crop",
				Kind: geotriples.ObjectIRI, Template: "http://extremeearth.eu/crop/{crop}"},
		},
		GeometryColumn: "wkt",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats, err := geotriples.TransformParallel(src, m, workers); err != nil || stats.Errors > 0 {
			b.Fatalf("transform: %v, %+v", err, stats)
		}
	}
}

func benchFieldSource(n int) *geotriples.Source {
	rng := rand.New(rand.NewSource(51))
	src := &geotriples.Source{Name: "fields", Columns: []string{"id", "crop", "wkt"}}
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*10000, rng.Float64()*10000
		src.Records = append(src.Records, geotriples.Record{
			"id":   fmt.Sprintf("%d", i),
			"crop": fmt.Sprintf("crop%d", i%5),
			"wkt":  geom.NewRect(x, y, x+50, y+50).WKT(),
		})
	}
	return src
}

func BenchmarkE7_GeoTriples_1Mapper(b *testing.B)  { benchGeoTriples(b, 1) }
func BenchmarkE7_GeoTriples_8Mappers(b *testing.B) { benchGeoTriples(b, 8) }

// --- E8: interlinking ---

func benchEntities(n int, seed int64, prefix string) []interlink.Entity {
	rng := rand.New(rand.NewSource(seed))
	out := make([]interlink.Entity, n)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*10000, rng.Float64()*10000
		s := 50 + rng.Float64()*200
		out[i] = interlink.Entity{
			IRI:      fmt.Sprintf("http://extremeearth.eu/%s/%d", prefix, i),
			Geometry: geom.NewRect(x, y, x+s, y+s),
		}
	}
	return out
}

func benchInterlink(b *testing.B, f func(a, bs []interlink.Entity, cfg interlink.Config) ([]interlink.Link, interlink.Stats)) {
	a := benchEntities(1000, 61, "a")
	bs := benchEntities(1000, 62, "b")
	cfg := interlink.Config{Relation: interlink.RelIntersects, Workers: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, bs, cfg)
	}
}

func BenchmarkE8_Interlink_Naive(b *testing.B)   { benchInterlink(b, interlink.DiscoverNaive) }
func BenchmarkE8_Interlink_Blocked(b *testing.B) { benchInterlink(b, interlink.DiscoverBlocked) }
func BenchmarkE8_Interlink_MetaBlocked(b *testing.B) {
	benchInterlink(b, interlink.DiscoverMetaBlocked)
}
func BenchmarkE8_Interlink_Indexed(b *testing.B) { benchInterlink(b, interlink.DiscoverIndexed) }

// --- Spatial join: index join vs naive cross-product ---

// The BenchmarkSpatialJoin group tracks the variable-variable spatial
// join this repository used to degrade to a cartesian scan. The kernel
// pair runs the shared geom join core at the acceptance scale (10k x 10k
// geometries; the index join must be >=10x faster than the naive cross
// product). The query pair measures the same join through the full
// SPARQL pipeline: indexed mode runs an R-tree probe step, the cartesian
// baseline evaluates the filter per pair of candidate rows.

func benchSpatialJoinKernel(b *testing.B,
	f func(a, bs []interlink.Entity, cfg interlink.Config) ([]interlink.Link, interlink.Stats)) {
	b.Helper()
	a := benchEntities(10000, 61, "a")
	bs := benchEntities(10000, 62, "b")
	cfg := interlink.Config{Relation: interlink.RelIntersects}
	links, _ := f(a, bs, cfg)
	if len(links) == 0 {
		b.Fatal("warmup: no links")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, bs, cfg)
	}
}

func BenchmarkSpatialJoin_NaiveCross_10kx10k(b *testing.B) {
	benchSpatialJoinKernel(b, interlink.DiscoverNaive)
}

func BenchmarkSpatialJoin_Index_10kx10k(b *testing.B) {
	benchSpatialJoinKernel(b, interlink.DiscoverIndexed)
}

// spatialJoinStore loads n rectangle features per side under distinct
// classes into the given store.
func spatialJoinStore(b *testing.B, add func(geostore.Feature) error, n int) {
	b.Helper()
	for _, side := range []struct {
		class string
		seed  int64
	}{
		{"http://extremeearth.eu/ontology#Left", 61},
		{"http://extremeearth.eu/ontology#Right", 62},
	} {
		for _, e := range benchEntities(n, side.seed, side.class) {
			if err := add(geostore.Feature{IRI: e.IRI, Class: side.class, Geometry: e.Geometry}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

const spatialJoinQuery = `
	PREFIX ee: <http://extremeearth.eu/ontology#>
	SELECT ?a ?b WHERE {
		?a a ee:Left . ?a geo:hasGeometry ?ga . ?ga geo:asWKT ?g1 .
		?b a ee:Right . ?b geo:hasGeometry ?gb . ?gb geo:asWKT ?g2 .
		FILTER(geof:sfIntersects(?g1, ?g2))
	}`

func benchSpatialJoinQuery(b *testing.B, engine interface {
	Query(*sparql.Query) (*sparql.Results, error)
}) {
	b.Helper()
	q := sparql.MustParse(spatialJoinQuery)
	res, err := engine.Query(q)
	if err != nil {
		b.Fatalf("warmup: %v", err)
	}
	if res.Len() == 0 {
		b.Fatal("warmup: no rows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpatialJoin_Query_Cartesian_1kx1k is the degradation this PR
// removed: naive mode evaluates the var-var filter over the full
// cross-product with per-pair WKT parsing (kept small — it is the slow
// baseline).
func BenchmarkSpatialJoin_Query_Cartesian_1kx1k(b *testing.B) {
	st := geostore.New(geostore.ModeNaive)
	spatialJoinStore(b, st.AddFeature, 1000)
	benchSpatialJoinQuery(b, st)
}

func BenchmarkSpatialJoin_Query_Index_1kx1k(b *testing.B) {
	st := geostore.New(geostore.ModeIndexed)
	spatialJoinStore(b, st.AddFeature, 1000)
	st.Build()
	benchSpatialJoinQuery(b, st)
}

func BenchmarkSpatialJoin_Query_Index_10kx10k(b *testing.B) {
	st := geostore.New(geostore.ModeIndexed)
	spatialJoinStore(b, st.AddFeature, 10000)
	st.Build()
	benchSpatialJoinQuery(b, st)
}

// --- E9: federation ---

func benchFederation(b *testing.B, disableSelection bool) {
	fed := federate.New()
	const k = 8
	stripW := benchExtent.Width() / k
	for i := 0; i < k; i++ {
		region := geom.NewRect(benchExtent.Min.X+float64(i)*stripW, benchExtent.Min.Y,
			benchExtent.Min.X+float64(i+1)*stripW, benchExtent.Max.Y)
		st := geostore.New(geostore.ModeIndexed)
		for _, f := range geostore.GeneratePointFeatures(1000, int64(100+i), region) {
			if err := st.AddFeature(f); err != nil {
				b.Fatal(err)
			}
		}
		st.Build()
		fed.Register(federate.NewStoreEndpoint(fmt.Sprintf("ep%d", i), st, 0))
	}
	q := geostore.SelectionQuery(geom.NewRect(100, 1000, 900, 3000))
	parsed, err := parseBenchQuery(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fed.Query(parsed, federate.Options{DisableSourceSelection: disableSelection}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9_Federation_SelectionOn(b *testing.B)  { benchFederation(b, false) }
func BenchmarkE9_Federation_SelectionOff(b *testing.B) { benchFederation(b, true) }

// --- E10: semantic catalogue ---

func benchCatalogue(b *testing.B, n int) *catalogue.Catalogue {
	b.Helper()
	c := catalogue.New()
	for _, p := range sentinel.GenerateProducts(n, 3, benchExtent) {
		if err := c.AddProduct(p); err != nil {
			b.Fatal(err)
		}
	}
	barrier := geom.Polygon{Shell: geom.Ring{
		{X: 2000, Y: 2000}, {X: 6000, Y: 2200}, {X: 6200, Y: 5800}, {X: 1900, Y: 5600},
	}}
	if err := c.AddIceBarrier("NorskeOer", 2017, barrier); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		p := geom.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000}
		if err := c.AddIceberg(fmt.Sprintf("b%d", i), 2016+rng.Intn(3), p); err != nil {
			b.Fatal(err)
		}
	}
	c.Build()
	return c
}

func BenchmarkE10_Catalogue_AreaYear(b *testing.B) {
	c := benchCatalogue(b, 20000)
	window := geom.NewRect(1000, 1000, 3000, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ProductsInYearOverArea(2018, window); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10_Catalogue_IcebergQuery(b *testing.B) {
	c := benchCatalogue(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.IcebergsEmbedded("NorskeOer", 2017); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: HopsFS metadata ---

func benchFS(b *testing.B, shards, inline int, blockCost time.Duration) *hopsfs.FS {
	b.Helper()
	fs := hopsfs.New(kvstore.New(shards),
		hopsfs.WithInlineThreshold(inline),
		hopsfs.WithBlockStore(hopsfs.NewBlockStore(blockCost)))
	if err := fs.MkdirAll("/bench"); err != nil {
		b.Fatal(err)
	}
	return fs
}

func BenchmarkE11_HopsFS_Create(b *testing.B) {
	fs := benchFS(b, 8, 4096, 0)
	payload := []byte("x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.Create(fmt.Sprintf("/bench/f%d", i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_HopsFS_Stat(b *testing.B) {
	fs := benchFS(b, 8, 4096, 0)
	if err := fs.Create("/bench/target", []byte("x")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Stat("/bench/target"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_HopsFS_List100(b *testing.B) {
	fs := benchFS(b, 8, 4096, 0)
	for i := 0; i < 100; i++ {
		if err := fs.Create(fmt.Sprintf("/bench/f%03d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		names, err := fs.List("/bench")
		if err != nil || len(names) != 100 {
			b.Fatalf("list: %v, %d", err, len(names))
		}
	}
}

func benchSmallFileRead(b *testing.B, inline int) {
	fs := benchFS(b, 8, inline, hopsfs.DefaultBlockAccessCost)
	payload := make([]byte, 1024)
	if err := fs.Create("/bench/small", payload); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Read("/bench/small"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_SmallFileRead_Inline(b *testing.B)     { benchSmallFileRead(b, 4096) }
func BenchmarkE11_SmallFileRead_BlockStore(b *testing.B) { benchSmallFileRead(b, 0) }

// --- E12: water maps ---

func BenchmarkE12_WaterMaps(b *testing.B) {
	grid := raster.NewGrid(benchExtent.Min, 10, 64, 64)
	truth := sentinel.GenerateLandCover(grid, 8, 31)
	weather := promet.GenerateWeather(150, 33)
	cfg := promet.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := promet.Run(truth, weather, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: sea-ice classification ---

func BenchmarkE13_SeaIce_ClassifyScene(b *testing.B) {
	grid := raster.NewGrid(benchExtent.Min, 100, 64, 64)
	truth := sentinel.GenerateIceChart(grid, 6, 41)
	scene := sentinel.GenerateS1Scene(truth, 8, 42)
	clf, _ := seaice.TrainClassifier(2000, 8, 5, 43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seaice.ClassifyScene(scene, clf)
	}
}

func BenchmarkE13_SeaIce_MakeChart(b *testing.B) {
	grid := raster.NewGrid(benchExtent.Min, 100, 128, 128)
	truth := sentinel.GenerateIceChart(grid, 10, 41)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seaice.MakeChart(truth, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E14: PCDSS codecs ---

func benchChart() *raster.ClassMap {
	grid := raster.NewGrid(benchExtent.Min, 1000, 128, 128)
	return sentinel.GenerateIceChart(grid, 10, 81)
}

func BenchmarkE14_PCDSS_EncodeRLE(b *testing.B) {
	cm := benchChart()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pcdss.EncodeRLE(cm)
	}
}

func BenchmarkE14_PCDSS_EncodeQuadtree(b *testing.B) {
	cm := benchChart()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pcdss.EncodeQuadtree(cm)
	}
}

// --- E15: archive velocity ---

func BenchmarkE15_Velocity_Ingest(b *testing.B) {
	products := sentinel.GenerateProducts(b.N, 91, benchExtent)
	arch := sentinel.NewArchive()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := arch.Ingest(products[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// parseBenchQuery parses an stSPARQL query for the federation benchmark.
func parseBenchQuery(q string) (*sparql.Query, error) { return sparql.Parse(q) }

// --- Endpoint: SPARQL protocol serving layer ---

// benchEndpoint drives the HTTP serving layer over a 10k-feature indexed
// store with a fixed rectangular selection, measuring full request
// round-trips through httptest recorders. cacheSize < 0 disables the
// result cache, isolating parse+eval+serialize cost; with caching on,
// every request after the first is a cache hit.
func benchEndpoint(b *testing.B, cacheSize int, format string) {
	b.Helper()
	st := geostore.New(geostore.ModeIndexed)
	for _, f := range geostore.GeneratePointFeatures(10000, 42, benchExtent) {
		if err := st.AddFeature(f); err != nil {
			b.Fatal(err)
		}
	}
	st.Build()
	srv := endpoint.New(st, endpoint.Config{CacheSize: cacheSize})
	// Like geostore.SelectionQuery but also projecting the geometry, so
	// the GeoJSON serializer has a WKT variable to render.
	query := fmt.Sprintf(`
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?f ?wkt WHERE {
			?f a ee:Feature .
			?f geo:hasGeometry ?g .
			?g geo:asWKT ?wkt .
			FILTER(geof:sfIntersects(?wkt, "%s"^^geo:wktLiteral))
		}`, geom.NewRect(1000, 1000, 4000, 4000).WKT())
	target := "/sparql?format=" + format + "&query=" + url.QueryEscape(query)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// --- Loading while serving: the first read after a small load ---

// The pair times what a reader pays for a 2 000-triple load into a
// 600 000-triple store; the load itself runs with the timer stopped.
// FirstQueryAfterLoad is a window query through geostore: index merge,
// planner statistics, R-tree refresh and the query. FlushSmallBatch is
// the index merge alone, behind a one-subject lookup in the rdf.Store.
const (
	loadBenchBase  = 150000 // features, ×4 triples
	loadBenchBatch = 500
)

// loadBenchStore returns a store holding the base features and a
// function that loads the next batch with the timer stopped. Batch k is
// generated from seed k and its IRIs carry k, so no batch repeats a
// feature.
func loadBenchStore(b *testing.B) (*geostore.Store, func()) {
	b.Helper()
	st := geostore.New(geostore.ModeIndexed)
	batch := 0
	load := func(n int) {
		batch++
		for _, f := range geostore.GeneratePointFeatures(n, int64(batch), benchExtent) {
			f.IRI = fmt.Sprintf("%s/batch%d", f.IRI, batch)
			if err := st.AddFeature(f); err != nil {
				b.Fatal(err)
			}
		}
	}
	load(loadBenchBase)
	return st, func() {
		b.StopTimer()
		load(loadBenchBatch)
		b.StartTimer()
	}
}

func BenchmarkFirstQueryAfterLoad(b *testing.B) {
	b.Run("base=600k,batch=2k", func(b *testing.B) {
		st, loadBatch := loadBenchStore(b)
		rng := rand.New(rand.NewSource(15))
		queries := make([]*sparql.Query, 16)
		for i := range queries {
			queries[i] = sparql.MustParse(geostore.SelectionQuery(geostore.RandomWindow(rng, benchExtent, 0.0004)))
		}
		if _, err := st.Query(queries[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loadBatch()
			if _, err := st.Query(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFlushSmallBatch(b *testing.B) {
	st, loadBatch := loadBenchStore(b)
	probe, _ := st.RDF().Dict().Lookup(rdf.NewIRI("http://extremeearth.eu/feature/pt0/batch1"))
	count := func() {
		if n := st.RDF().Count(probe, rdf.NoID, rdf.NoID); n != 3 {
			b.Fatalf("probe subject has %d triples, want 3", n)
		}
	}
	count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadBatch()
		count()
	}
}

// --- Query executor: compiled slot-based pipeline vs legacy evaluator ---

// The BenchmarkQuery group measures the hottest serving-path kernel —
// multi-pattern BGP joins with filters — on a 100k-triple dataset
// (10k point features × 10 triples: type, geometry pair, value, six
// band observations). Each workload runs through the legacy map-based
// evaluator (the reference oracle) and the compiled slot executor, on
// the uncached path: the slot variants re-plan every iteration.

const queryBenchFeatures = 10000 // ×10 triples per feature = 100k triples

// queryWorkload fetches a workload from the shared corpus in
// internal/experiments (also behind `eebench -bench-out`), so the root
// benchmarks and the JSON perf report measure identical queries.
func queryWorkload(b *testing.B, name string) experiments.QueryWorkload {
	b.Helper()
	for _, w := range experiments.QueryWorkloads {
		if w.Name == name {
			return w
		}
	}
	b.Fatalf("unknown query workload %q", name)
	return experiments.QueryWorkload{}
}

func benchQueryEval(b *testing.B, name string,
	eval func(*rdf.Store, *sparql.Query) (*sparql.Results, error)) {
	b.Helper()
	w := queryWorkload(b, name)
	st, _ := storageDataset(b, queryBenchFeatures)
	rst := st.RDF()
	q := sparql.MustParse(w.Query)
	if res, err := eval(rst, q); err != nil {
		b.Fatalf("warmup: %v", err)
	} else if res.Len() < w.MinRows {
		b.Fatalf("warmup: rows = %d, want >= %d", res.Len(), w.MinRows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eval(rst, q)
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() < w.MinRows {
			b.Fatalf("rows = %d, want >= %d", res.Len(), w.MinRows)
		}
	}
}

func BenchmarkQuery_JoinFilter_Legacy(b *testing.B) {
	benchQueryEval(b, "join_filter", sparql.EvalLegacy)
}
func BenchmarkQuery_JoinFilter_Slot(b *testing.B) {
	benchQueryEval(b, "join_filter", sparql.Eval)
}
func BenchmarkQuery_Distinct_Legacy(b *testing.B) {
	benchQueryEval(b, "distinct", sparql.EvalLegacy)
}
func BenchmarkQuery_Distinct_Slot(b *testing.B) {
	benchQueryEval(b, "distinct", sparql.Eval)
}
func BenchmarkQuery_OrderByLimit_Legacy(b *testing.B) {
	benchQueryEval(b, "order_by_limit", sparql.EvalLegacy)
}
func BenchmarkQuery_OrderByLimit_Slot(b *testing.B) {
	benchQueryEval(b, "order_by_limit", sparql.Eval)
}
func BenchmarkQuery_CountGroup_Legacy(b *testing.B) {
	benchQueryEval(b, "count_group", sparql.EvalLegacy)
}
func BenchmarkQuery_CountGroup_Slot(b *testing.B) {
	benchQueryEval(b, "count_group", sparql.Eval)
}

// BenchmarkQuery_JoinFilter_SlotPlanned executes a pre-compiled plan,
// isolating execution cost from planning (the serving path pays planning
// once per store version thanks to geostore's plan cache).
func BenchmarkQuery_JoinFilter_SlotPlanned(b *testing.B) {
	w := queryWorkload(b, "join_filter")
	st, _ := storageDataset(b, queryBenchFeatures)
	q := sparql.MustParse(w.Query)
	plan, err := sparql.CompilePlan(st.RDF(), q, sparql.PlanOpts{})
	if err != nil {
		b.Fatal(err)
	}
	if res, err := plan.Execute(); err != nil {
		b.Fatalf("warmup: %v", err)
	} else if res.Len() < w.MinRows {
		b.Fatalf("warmup: rows = %d, want >= %d", res.Len(), w.MinRows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel executor: morsel-driven worker pool ---

// The BenchmarkParallelQuery group measures the morsel-driven parallel
// executor against the sequential slot pipeline on the same 100k-triple
// band-observation dataset, at degrees 1/2/4/NumCPU. Degree 1 runs the
// full morsel machinery with a single worker — the overhead the
// acceptance bar holds within 5% of the sequential executor — while the
// spatial-refinement workload runs through the geostore so R-tree
// seeding and in-pipeline geometry refiners are part of what scales.
// Workloads are shared with `eebench -bench-group parallel`
// (experiments.ParallelWorkloads), so BENCH_parallel.json reports the
// identical queries.

// parallelBenchStore lazily builds one shared dataset for the group.
var parallelBenchStore *geostore.Store

func parallelBenchDataset(b *testing.B) *geostore.Store {
	b.Helper()
	if parallelBenchStore == nil {
		parallelBenchStore = experiments.ParallelBenchDataset(queryBenchFeatures)
	}
	return parallelBenchStore
}

func parallelWorkload(b *testing.B, name string) experiments.ParallelWorkload {
	b.Helper()
	for _, w := range experiments.ParallelWorkloads {
		if w.Name == name {
			return w
		}
	}
	b.Fatalf("unknown parallel workload %q", name)
	return experiments.ParallelWorkload{}
}

// benchParallelQuery measures one workload at one degree (0 = the
// sequential slot executor baseline).
func benchParallelQuery(b *testing.B, name string, degree int) {
	b.Helper()
	w := parallelWorkload(b, name)
	gst := parallelBenchDataset(b)
	q := sparql.MustParse(w.Query)

	var eval func() (*sparql.Results, error)
	if w.Spatial {
		d := degree
		if d == 0 {
			d = 1 // geostore runs sequentially below degree 2
		}
		eval = func() (*sparql.Results, error) {
			return experiments.ParallelSpatialQuery(gst, q, d)
		}
	} else {
		plan, err := sparql.CompilePlan(gst.RDF(), q, sparql.PlanOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if degree == 0 {
			eval = plan.Execute
		} else {
			eval = func() (*sparql.Results, error) {
				return plan.ExecuteParallel(sparql.ParallelExec{Degree: degree})
			}
		}
	}
	res, err := eval()
	if err != nil {
		b.Fatalf("warmup: %v", err)
	}
	if res.Len() < w.MinRows {
		b.Fatalf("warmup: rows = %d, want >= %d", res.Len(), w.MinRows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallelDegrees runs the sequential baseline plus degrees
// 1/2/4/NumCPU as sub-benchmarks.
func benchParallelDegrees(b *testing.B, name string) {
	b.Run("seq", func(b *testing.B) { benchParallelQuery(b, name, 0) })
	for _, d := range experiments.ParallelDegrees() {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) { benchParallelQuery(b, name, d) })
	}
}

func BenchmarkParallelQuery_LargeScan(b *testing.B)     { benchParallelDegrees(b, "large_scan") }
func BenchmarkParallelQuery_FilterHeavy(b *testing.B)   { benchParallelDegrees(b, "filter_heavy") }
func BenchmarkParallelQuery_SpatialRefine(b *testing.B) { benchParallelDegrees(b, "spatial_refine") }
func BenchmarkParallelQuery_CountGroup(b *testing.B)    { benchParallelDegrees(b, "count_group") }
func BenchmarkParallelQuery_OrderByLimit(b *testing.B)  { benchParallelDegrees(b, "order_by_limit") }

// The BenchmarkAnalyzeOverhead group measures EXPLAIN ANALYZE's
// instrumented executor against the plain one on the same dataset
// (workloads shared with `eebench -bench-group analyze`). The plain
// sub-benchmarks are the regression guard for the disabled path: stats
// collection is a nil-check on the hot path, so plain ns/op must stay
// within noise (the acceptance bar is 2%) of the pre-instrumentation
// executor — compare against BenchmarkParallelQuery_*/seq history.
func benchAnalyzeOverhead(b *testing.B, name string) {
	w := parallelWorkload(b, name)
	gst := parallelBenchDataset(b)
	q := sparql.MustParse(w.Query)

	var plain, analyzed func() (*sparql.Results, error)
	if w.Spatial {
		plain = func() (*sparql.Results, error) { return gst.Query(q) }
		analyzed = func() (*sparql.Results, error) {
			res, _, err := gst.QueryAnalyze(context.Background(), q)
			return res, err
		}
	} else {
		plan, err := sparql.CompilePlan(gst.RDF(), q, sparql.PlanOpts{})
		if err != nil {
			b.Fatal(err)
		}
		plain = plan.Execute
		analyzed = func() (*sparql.Results, error) {
			res, _, err := plan.ExecuteAnalyzed(nil)
			return res, err
		}
	}
	for _, mode := range []struct {
		name string
		eval func() (*sparql.Results, error)
	}{{"plain", plain}, {"analyzed", analyzed}} {
		b.Run(mode.name, func(b *testing.B) {
			res, err := mode.eval()
			if err != nil {
				b.Fatalf("warmup: %v", err)
			}
			if res.Len() < w.MinRows {
				b.Fatalf("warmup: rows = %d, want >= %d", res.Len(), w.MinRows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mode.eval(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAnalyzeOverhead_LargeScan(b *testing.B) { benchAnalyzeOverhead(b, "large_scan") }
func BenchmarkAnalyzeOverhead_SpatialRefine(b *testing.B) {
	benchAnalyzeOverhead(b, "spatial_refine")
}

// --- Storage: durability engine (WAL + snapshots) ---

// storageDataset builds a geostore of n synthetic point features — each
// carrying six band-observation properties drawn from a shared
// vocabulary, like real EO metadata where predicates and quantized
// values repeat across features — and returns it together with its
// N-Triples serialization, the two cold restart inputs being compared.
func storageDataset(b *testing.B, n int) (*geostore.Store, string) {
	b.Helper()
	st := geostore.New(geostore.ModeIndexed)
	rng := rand.New(rand.NewSource(43))
	for _, f := range geostore.GeneratePointFeatures(n, 42, benchExtent) {
		for band := 0; band < 6; band++ {
			f.Props[fmt.Sprintf("http://extremeearth.eu/ontology#band%d", band)] =
				rdf.NewIntLiteral(int64(rng.Intn(256)))
		}
		if err := st.AddFeature(f); err != nil {
			b.Fatal(err)
		}
	}
	var nt strings.Builder
	for _, tr := range st.RDF().Triples() {
		nt.WriteString(tr.String())
		nt.WriteByte('\n')
	}
	return st, nt.String()
}

// BenchmarkStorage_WALAppend measures journaled write throughput:
// triples recorded and group-committed in batches of 100 with the
// default fsync cadence of the server (-wal-sync-every 8).
func BenchmarkStorage_WALAppend(b *testing.B) {
	dir := b.TempDir()
	l, err := storage.CreateLog(filepath.Join(dir, "wal.log"), storage.Options{SyncEvery: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	pred := rdf.NewIRI("http://extremeearth.eu/ontology#value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://extremeearth.eu/feature/%d", i)),
			pred, rdf.NewIntLiteral(int64(i)))
		if err := l.Record(t); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Commit(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "triples/s")
}

// benchWALAppend is the shared body of the telemetry overhead pair:
// journaled appends (no fsync, so the measured cost is CPU, not the
// disk) committed in batches of 100, with or without an instrumented
// log.
func benchWALAppend(b *testing.B, m *storage.Metrics) {
	dir := b.TempDir()
	l, err := storage.CreateLog(filepath.Join(dir, "wal.log"), storage.Options{NoSync: true, Metrics: m})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	pred := rdf.NewIRI("http://extremeearth.eu/ontology#value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://extremeearth.eu/feature/%d", i)),
			pred, rdf.NewIntLiteral(int64(i)))
		if err := l.Record(t); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			if err := l.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := l.Commit(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkTelemetryOverhead_WALAppendDisabled is the baseline: no
// Metrics attached, so the hot path pays only nil checks.
func BenchmarkTelemetryOverhead_WALAppendDisabled(b *testing.B) {
	benchWALAppend(b, nil)
}

// BenchmarkTelemetryOverhead_WALAppendEnabled attaches a live registry;
// the delta against Disabled is the full telemetry cost (one clock read
// and three histogram observations per 100-triple commit — the
// per-triple Record path is never instrumented).
func BenchmarkTelemetryOverhead_WALAppendEnabled(b *testing.B) {
	benchWALAppend(b, storage.NewMetrics(telemetry.NewRegistry()))
}

// benchStream is the slice of vfs.File the stream pair exercises;
// *os.File satisfies it directly, so the baseline pays no adapter.
type benchStream interface {
	Write(p []byte) (int, error)
	Close() error
}

// benchStreamWrite is the shared body of the vfs overhead pair: a
// WAL-shaped buffered stream (64-byte frames, flush every 100) through
// whichever file handle open returns. Both variants issue identical
// syscalls; the delta is the cost of the vfs.File interface dispatch
// that every storage I/O now pays so crash tests can inject faults.
func benchStreamWrite(b *testing.B, open func(path string) (benchStream, error)) {
	f, err := open(filepath.Join(b.TempDir(), "stream.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<16)
	var rec [64]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(rec[:8], uint64(i))
		if _, err := w.Write(rec[:]); err != nil {
			b.Fatal(err)
		}
		if i%100 == 99 {
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "recs/s")
}

// BenchmarkVFSOverhead_StreamOS is the baseline: the stream goes to a
// bare *os.File, as the WAL did before the filesystem seam existed.
func BenchmarkVFSOverhead_StreamOS(b *testing.B) {
	benchStreamWrite(b, func(path string) (benchStream, error) {
		return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	})
}

// BenchmarkVFSOverhead_StreamVFS routes the same stream through
// vfs.OS — the production default under every WAL and snapshot write.
// The delta against StreamOS is the full price of the seam.
func BenchmarkVFSOverhead_StreamVFS(b *testing.B) {
	benchStreamWrite(b, func(path string) (benchStream, error) {
		return vfs.OS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	})
}

const storageBenchFeatures = 20000 // ×10 triples per feature = 200k triples

// BenchmarkStorage_ColdStart_Snapshot is the re-engineered restart
// path: load a binary snapshot (dictionary + encoded triples) into an
// empty store. Compare with BenchmarkStorage_ColdStart_NTriples — the
// acceptance target is a ≥5x faster restart.
func BenchmarkStorage_ColdStart_Snapshot(b *testing.B) {
	src, _ := storageDataset(b, storageBenchFeatures)
	path := filepath.Join(b.TempDir(), "s.snap")
	if err := storage.WriteSnapshotFile(path, src.RDF()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := rdf.NewStore()
		if _, err := storage.LoadSnapshotFile(path, st); err != nil {
			b.Fatal(err)
		}
		if st.Len() != src.Len() {
			b.Fatalf("loaded %d triples, want %d", st.Len(), src.Len())
		}
	}
	b.ReportMetric(float64(src.Len())*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkStorage_ColdStart_NTriples is the ephemeral baseline the
// snapshot path replaces: re-parse the whole N-Triples corpus.
func BenchmarkStorage_ColdStart_NTriples(b *testing.B) {
	src, nt := storageDataset(b, storageBenchFeatures)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := rdf.NewStore()
		if _, err := st.LoadNTriples(strings.NewReader(nt)); err != nil {
			b.Fatal(err)
		}
		if st.Len() != src.Len() {
			b.Fatalf("loaded %d triples, want %d", st.Len(), src.Len())
		}
	}
	b.ReportMetric(float64(src.Len())*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
}

// BenchmarkStorage_Recovery measures a full crash recovery: open the
// data directory, load the snapshot, and replay a WAL tail of ~4k
// triples on top.
func BenchmarkStorage_Recovery(b *testing.B) {
	src, _ := storageDataset(b, storageBenchFeatures)
	dir := b.TempDir()
	db, err := storage.Open(dir, storage.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	st := rdf.NewStore()
	if _, err := db.Recover(st); err != nil {
		b.Fatal(err)
	}
	st.SetJournal(db.Log())
	all := src.RDF().Triples()
	if err := st.AddBatch(all[:len(all)-4000]); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Snapshot(st); err != nil {
		b.Fatal(err)
	}
	if err := st.AddBatch(all[len(all)-4000:]); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db2, err := storage.Open(dir, storage.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		st2 := rdf.NewStore()
		if _, err := db2.Recover(st2); err != nil {
			b.Fatal(err)
		}
		if st2.Len() != len(all) {
			b.Fatalf("recovered %d triples, want %d", st2.Len(), len(all))
		}
		b.StopTimer()
		db2.Close() // reopening requires releasing the segment handle
		b.StartTimer()
	}
}

// BenchmarkStorage_BulkLoad measures the parallel cold loader (sharded
// N-Triples + WKT parsing, single writer). The corpus uses multi-polygon
// features — the workload whose WKT parsing is expensive enough to
// shard; for point features the single writer dominates either way.
func benchBulkLoad(b *testing.B, workers int) {
	b.Helper()
	src := geostore.New(geostore.ModeIndexed)
	for _, f := range geostore.GenerateMultiPolygonFeatures(5000, 2, 64, 11, benchExtent) {
		if err := src.AddFeature(f); err != nil {
			b.Fatal(err)
		}
	}
	var sb strings.Builder
	for _, tr := range src.RDF().Triples() {
		sb.WriteString(tr.String())
		sb.WriteByte('\n')
	}
	nt := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := geostore.New(geostore.ModeIndexed)
		n, err := storage.BulkLoad(strings.NewReader(nt), st, workers)
		if err != nil {
			b.Fatal(err)
		}
		if n != src.Len() {
			b.Fatalf("loaded %d, want %d", n, src.Len())
		}
	}
	b.ReportMetric(float64(src.Len())*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
}

func BenchmarkStorage_BulkLoad_1Worker(b *testing.B)  { benchBulkLoad(b, 1) }
func BenchmarkStorage_BulkLoad_8Workers(b *testing.B) { benchBulkLoad(b, 8) }

func BenchmarkEndpoint_Uncached_JSON(b *testing.B)    { benchEndpoint(b, -1, "json") }
func BenchmarkEndpoint_Cached_JSON(b *testing.B)      { benchEndpoint(b, 256, "json") }
func BenchmarkEndpoint_Uncached_CSV(b *testing.B)     { benchEndpoint(b, -1, "csv") }
func BenchmarkEndpoint_Cached_CSV(b *testing.B)       { benchEndpoint(b, 256, "csv") }
func BenchmarkEndpoint_Uncached_GeoJSON(b *testing.B) { benchEndpoint(b, -1, "geojson") }
func BenchmarkEndpoint_Cached_GeoJSON(b *testing.B)   { benchEndpoint(b, 256, "geojson") }
