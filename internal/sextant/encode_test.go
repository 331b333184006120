package sextant

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// The GeoJSON encoder used to build a map[string]any tree per feature and
// hand it to encoding/json. refGeometry and refFeature rebuild those
// trees here, so the byte-equivalence tests below compare the append
// encoder against encoding/json's output for the very same shapes.

func refGeometry(g geom.Geometry) map[string]any {
	pt := func(p geom.Point) []float64 { return []float64{p.X, p.Y} }
	ring := func(r geom.Ring) [][]float64 {
		out := make([][]float64, 0, len(r)+1)
		for _, p := range r {
			out = append(out, pt(p))
		}
		if len(r) > 0 {
			out = append(out, pt(r[0]))
		}
		return out
	}
	poly := func(p geom.Polygon) [][][]float64 {
		out := [][][]float64{ring(p.Shell)}
		for _, h := range p.Holes {
			out = append(out, ring(h))
		}
		return out
	}
	switch gg := g.(type) {
	case geom.Point:
		return map[string]any{"type": "Point", "coordinates": pt(gg)}
	case geom.Rect:
		return map[string]any{"type": "Polygon", "coordinates": [][][]float64{{
			pt(gg.Min), {gg.Max.X, gg.Min.Y}, pt(gg.Max), {gg.Min.X, gg.Max.Y}, pt(gg.Min),
		}}}
	case geom.LineString:
		coords := make([][]float64, len(gg.Points))
		for i, p := range gg.Points {
			coords[i] = pt(p)
		}
		return map[string]any{"type": "LineString", "coordinates": coords}
	case geom.Polygon:
		return map[string]any{"type": "Polygon", "coordinates": poly(gg)}
	case geom.MultiPolygon:
		coords := make([][][][]float64, len(gg.Polygons))
		for i, p := range gg.Polygons {
			coords[i] = poly(p)
		}
		return map[string]any{"type": "MultiPolygon", "coordinates": coords}
	}
	panic(fmt.Sprintf("refGeometry: %T", g))
}

func refFeature(f Feature) map[string]any {
	props := make(map[string]any, len(f.Properties)+1)
	for k, v := range f.Properties {
		props[k] = v
	}
	if !f.Timestamp.IsZero() {
		props["timestamp"] = f.Timestamp.Format(time.RFC3339)
	}
	fm := map[string]any{"type": "Feature", "geometry": refGeometry(f.Geometry), "properties": props}
	if f.ID != "" {
		fm["id"] = f.ID
	}
	return fm
}

// refCollection is the FeatureCollection document for the features'
// reference maps.
func refCollection(t *testing.T, name string, features []map[string]any) string {
	t.Helper()
	head, err := json.Marshal(name)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]string, len(features))
	for i, f := range features {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = string(b)
	}
	return `{"type":"FeatureCollection","name":` + string(head) + `,"features":[` + strings.Join(parts, ",") + "]}\n"
}

// escapeCorpus holds strings exercising every escaping rule: quotes,
// backslashes, HTML-sensitive bytes, control characters, U+2028/2029
// and invalid UTF-8.
var escapeCorpus = []string{
	"plain", `say "hi" \ bye`, "<b>&amp;</b>", "tab\there\nnew\rline\x00\x01\b\f\x1f\x7f",
	"sep\u2028para\u2029", "bad\xffutf8\xc3", "ünïcødé \U0001D11E",
}

var testGeometries = []geom.Geometry{
	geom.Point{X: 1, Y: 2},
	geom.Point{X: 1e-7, Y: math.Copysign(0, -1)},
	geom.Point{X: 1e21, Y: -123456.789},
	geom.Point{X: 0.1, Y: 5e-324},
	geom.NewRect(-1.5, 0, 10, 1e-6),
	geom.LineString{Points: []geom.Point{{X: 0, Y: 0}, {X: 5, Y: 5.25}, {X: -3, Y: 1e22}}},
	geom.LineString{},
	geom.Polygon{
		Shell: geom.Ring{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 4}},
		Holes: []geom.Ring{{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 2, Y: 2}}, {{X: 3, Y: 3}, {X: 3.5, Y: 3}, {X: 3.5, Y: 3.5}}},
	},
	geom.Polygon{},
	geom.MultiPolygon{Polygons: []geom.Polygon{
		{Shell: geom.Ring{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}},
		{Shell: geom.Ring{{X: 5, Y: 5}, {X: 9, Y: 5}, {X: 9, Y: 9}}, Holes: []geom.Ring{{{X: 6, Y: 6}, {X: 7, Y: 6}, {X: 7, Y: 7}}}},
	}},
	geom.MultiPolygon{},
}

func TestWriteGeoJSONMatchesEncodingJSON(t *testing.T) {
	ts := time.Date(2017, 7, 1, 12, 0, 0, 0, time.UTC)
	var layer Layer
	var want []map[string]any
	for i, g := range testGeometries {
		s := escapeCorpus[i%len(escapeCorpus)]
		f := Feature{Geometry: g}
		switch i % 4 {
		case 0:
			f.ID = "http://x/" + s
			f.Properties = map[string]any{"name": s, "z": "last", "a": "first"}
		case 1:
			f.Properties = map[string]any{"cells": 4, "area": 1e-7, "ok": true, "none": nil, s: s}
		case 2:
			f.ID, f.Timestamp = s, ts
			f.Properties = map[string]any{"timestamp": "replaced by the Timestamp", "v": s}
		case 3:
			f.Timestamp = ts
		}
		layer.Features = append(layer.Features, f)
		want = append(want, refFeature(f))
	}
	for _, name := range escapeCorpus {
		layer.Name = name
		var buf strings.Builder
		if err := WriteGeoJSON(&buf, layer); err != nil {
			t.Fatal(err)
		}
		if got, want := buf.String(), refCollection(t, name, want); got != want {
			t.Fatalf("layer %q:\n got %s\nwant %s", name, got, want)
		}
	}
}

func TestWriteGeoJSONRejectsNonFiniteCoordinates(t *testing.T) {
	for _, g := range []geom.Geometry{
		geom.Point{X: math.NaN(), Y: 0},
		geom.LineString{Points: []geom.Point{{X: 0, Y: 0}, {X: math.Inf(1), Y: 1}}},
		geom.Polygon{Holes: []geom.Ring{{{X: 0, Y: math.Inf(-1)}}}},
	} {
		if _, err := json.Marshal(refGeometry(g)); err == nil {
			t.Fatalf("encoding/json accepted %v", g)
		}
		var buf strings.Builder
		if err := WriteGeoJSON(&buf, Layer{Features: []Feature{{Geometry: g}}}); err == nil {
			t.Fatalf("WriteGeoJSON accepted %v", g)
		}
	}
}

// refRowFeature is the per-row Feature the endpoint used to build before
// encoding it: the first bound IRI as id (prefix + index when there is
// none), every other bound projected variable a string property.
func refRowFeature(row map[string]rdf.Term, vars []string, geomVar, idPrefix string, i int) (Feature, bool) {
	wkt, ok := row[geomVar]
	if !ok || wkt.Kind != rdf.Literal {
		return Feature{}, false
	}
	g, err := geom.ParseWKT(wkt.Value)
	if err != nil {
		return Feature{}, false
	}
	f := Feature{Geometry: g, Properties: map[string]any{}}
	for _, v := range vars {
		t, bound := row[v]
		if v == geomVar || !bound {
			continue
		}
		if t.Kind == rdf.IRI && f.ID == "" {
			f.ID = t.Value
		}
		f.Properties[v] = t.Value
	}
	if f.ID == "" {
		f.ID = fmt.Sprintf("%s%d", idPrefix, i)
	}
	return f, true
}

func TestRowEncoderMatchesEncodingJSON(t *testing.T) {
	wkts := []string{
		"POINT (1 2)", "POINT (0.0000001 -0)", "POINT (1e21 -3.25)",
		"ENVELOPE (0, 10, 20, -5)", "LINESTRING (0 0, 1 1, 2 0.5)",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 3 2, 3 3, 2 2))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5), (5.2 5.1, 5.5 5.1, 5.5 5.4, 5.2 5.1)))",
	}
	vars := []string{"f", "wkt", "label", "typed", "bn", "unbound", "f2", "label"}
	var rows []map[string]rdf.Term
	for i := 0; i < 60; i++ {
		s := escapeCorpus[i%len(escapeCorpus)]
		row := map[string]rdf.Term{"wkt": rdf.NewWKTLiteral(wkts[i%len(wkts)])}
		switch i % 5 {
		case 0:
			row["f"] = rdf.NewIRI("http://x/" + s)
			row["label"] = rdf.NewLangLiteral(s, "en")
		case 1: // no IRI: the id falls back to row/i
			row["label"] = rdf.NewLiteral(s)
			row["bn"] = rdf.NewBlank("b" + s)
		case 2:
			row["typed"] = rdf.NewTypedLiteral(s, rdf.XSDString)
			row["f2"] = rdf.NewIRI(s)
		case 3:
			row["f"] = rdf.NewIRI("") // an empty IRI is not an id
			row["f2"] = rdf.NewIRI("http://y/" + s)
		case 4:
			row["typed"] = rdf.NewIntLiteral(int64(i))
		}
		rows = append(rows, row)
	}
	// Rows the encoder skips: unbound, non-literal and unparsable geometry.
	rows = append(rows,
		map[string]rdf.Term{"f": rdf.NewIRI("http://x/nogeom")},
		map[string]rdf.Term{"wkt": rdf.NewIRI("http://x/POINT(1 2)")},
		map[string]rdf.Term{"wkt": rdf.NewWKTLiteral("POINT (1")},
	)

	enc := NewRowEncoder(vars, "wkt", "row/")
	got := AppendCollectionStart(nil, "results")
	var want []map[string]any
	for i, row := range rows {
		var err error
		if got, err = enc.Append(got, row, i); err != nil {
			t.Fatal(err)
		}
		if f, ok := refRowFeature(row, vars, "wkt", "row/", i); ok {
			want = append(want, refFeature(f))
		}
	}
	got = AppendCollectionEnd(got)
	if want := refCollection(t, "results", want); string(got) != want {
		t.Fatalf("\n got %s\nwant %s", got, want)
	}
}
