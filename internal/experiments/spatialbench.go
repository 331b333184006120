package experiments

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/geostore"
	"repro/internal/interlink"
	"repro/internal/sparql"
)

// This file implements the spatial-join benchmark group behind
// `eebench -bench-group spatial -bench-out BENCH_spatial.json`: the perf
// trajectory of the R-tree index spatial join against the naive
// cross-product, at the join-kernel level (interlink entities) and at
// the query level (variable-variable geof filters through the store).

// SpatialBenchResult is one measured (workload, engine) cell.
type SpatialBenchResult struct {
	Name        string `json:"name"`   // workload name
	Engine      string `json:"engine"` // "naive-cross" / "index-join" / ...
	LeftN       int    `json:"left_n"`
	RightN      int    `json:"right_n"`
	Links       int    `json:"links"`       // result pairs
	Comparisons int    `json:"comparisons"` // exact geometry tests (0 = not tracked)
	NsPerOp     int64  `json:"ns_per_op"`
}

// SpatialBenchReport is the BENCH_spatial.json schema.
type SpatialBenchReport struct {
	Group     string               `json:"group"`
	Generated string               `json:"generated"`
	Results   []SpatialBenchResult `json:"results"`
}

// SpatialJoinBench runs the spatial-join group and returns a printable
// table plus the JSON report. Full scale joins 10k x 10k geometries (the
// acceptance point for the >=10x index-join speedup); -quick drops to
// 1k x 1k.
func SpatialJoinBench(cfg Config) (*Table, *SpatialBenchReport) {
	kernelN := cfg.scale(10000, 1000)
	queryN := cfg.scale(2000, 300)

	t := &Table{
		ID:     "SPATIAL",
		Title:  "Spatial join: R-tree index join vs naive cross-product",
		Header: []string{"workload", "engine", "left", "right", "links", "comparisons", "wall_ms", "speedup"},
		Notes:  "kernel = interlink entities through the shared geom join core; query = var-var geof:sfIntersects through the store",
	}
	rep := &SpatialBenchReport{
		Group:     "spatial-join",
		Generated: time.Now().UTC().Format(time.RFC3339),
	}

	record := func(name, engine string, leftN, rightN, links, comparisons int, d time.Duration, base time.Duration) time.Duration {
		speedup := "1.00"
		if base > 0 && d > 0 {
			speedup = f2(float64(base.Nanoseconds()) / float64(d.Nanoseconds()))
		}
		t.Rows = append(t.Rows, []string{
			name, engine, i0(leftN), i0(rightN), i0(links), i0(comparisons), ms(d), speedup,
		})
		rep.Results = append(rep.Results, SpatialBenchResult{
			Name: name, Engine: engine, LeftN: leftN, RightN: rightN,
			Links: links, Comparisons: comparisons, NsPerOp: d.Nanoseconds(),
		})
		return d
	}

	// --- join kernel: naive cross-product vs shared R-tree index join ---
	a := linkEntities(kernelN, 61, "a")
	b := linkEntities(kernelN, 62, "b")
	lcfg := interlink.Config{Relation: interlink.RelIntersects}

	start := time.Now()
	links, st := interlink.DiscoverNaive(a, b, lcfg)
	naiveT := record("kernel_intersects", "naive-cross", kernelN, kernelN,
		len(links), st.Comparisons, time.Since(start), 0)

	start = time.Now()
	links, st = interlink.DiscoverIndexed(a, b, lcfg)
	record("kernel_intersects", "index-join", kernelN, kernelN,
		len(links), st.Comparisons, time.Since(start), naiveT)

	// --- query level: var-var geof filter through the store ---
	gstNaive := geostore.New(geostore.ModeNaive)
	gstIndexed := geostore.New(geostore.ModeIndexed)
	qa := linkEntities(queryN, 63, "qa")
	qb := linkEntities(queryN, 64, "qb")
	for _, set := range []struct {
		class    string
		entities []interlink.Entity
	}{
		{"http://extremeearth.eu/ontology#Left", qa},
		{"http://extremeearth.eu/ontology#Right", qb},
	} {
		for _, e := range set.entities {
			f := geostore.Feature{IRI: e.IRI, Class: set.class, Geometry: e.Geometry}
			if err := gstNaive.AddFeature(f); err != nil {
				panic(err)
			}
			if err := gstIndexed.AddFeature(f); err != nil {
				panic(err)
			}
		}
	}
	gstIndexed.Build()
	query := `
		PREFIX ee: <http://extremeearth.eu/ontology#>
		SELECT ?a ?b WHERE {
			?a a ee:Left . ?a geo:hasGeometry ?ga . ?ga geo:asWKT ?g1 .
			?b a ee:Right . ?b geo:hasGeometry ?gb . ?gb geo:asWKT ?g2 .
			FILTER(geof:sfIntersects(?g1, ?g2))
		}`
	q := sparql.MustParse(query)

	run := func(st interface {
		Query(*sparql.Query) (*sparql.Results, error)
	}) (int, time.Duration) {
		start := time.Now()
		res, err := st.Query(q)
		if err != nil {
			panic(err)
		}
		return res.Len(), time.Since(start)
	}
	rows, d := run(gstNaive)
	queryNaiveT := record("query_intersects", "naive-cartesian", queryN, queryN, rows, 0, d, 0)
	rows, d = run(gstIndexed)
	record("query_intersects", "index-join", queryN, queryN, rows, 0, d, queryNaiveT)

	return t, rep
}

// WriteSpatialBenchJSON writes the report to path (the conventional name
// is BENCH_spatial.json).
func WriteSpatialBenchJSON(path string, rep *SpatialBenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
