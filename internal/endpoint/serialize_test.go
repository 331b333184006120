package endpoint_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/endpoint"
	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/sextant"
	"repro/internal/sparql"
)

// refSPARQLJSON is the SPARQL JSON document as the writer used to produce
// it: one map[string]refTerm per row handed to encoding/json.
func refSPARQLJSON(t *testing.T, res *sparql.Results) string {
	t.Helper()
	type refTerm struct {
		Type     string `json:"type"`
		Value    string `json:"value"`
		Datatype string `json:"datatype,omitempty"`
		Lang     string `json:"xml:lang,omitempty"`
	}
	head, err := json.Marshal(res.Vars)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"head":{"vars":%s},"results":{"bindings":[`, head)
	for i, row := range res.Rows {
		if i > 0 {
			b.WriteString(",")
		}
		binding := make(map[string]refTerm, len(row))
		for v, term := range row {
			switch term.Kind {
			case rdf.IRI:
				binding[v] = refTerm{Type: "uri", Value: term.Value}
			case rdf.Blank:
				binding[v] = refTerm{Type: "bnode", Value: term.Value}
			default:
				binding[v] = refTerm{Type: "literal", Value: term.Value, Datatype: term.Datatype, Lang: term.Lang}
			}
		}
		buf, err := json.Marshal(binding)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(buf)
	}
	b.WriteString("]}}\n")
	return b.String()
}

// refGeoJSON is the GeoJSON document as the writer used to produce it: a
// sextant.Feature with a property map per row, written by the streamer
// (whose own bytes sextant's tests pin to encoding/json).
func refGeoJSON(t *testing.T, res *sparql.Results, geomVar string) string {
	t.Helper()
	var b strings.Builder
	s, err := sextant.NewGeoJSONStreamer(&b, "results")
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		wkt, ok := row[geomVar]
		if !ok || wkt.Kind != rdf.Literal {
			continue
		}
		g, err := geom.ParseWKT(wkt.Value)
		if err != nil {
			continue
		}
		f := sextant.Feature{Geometry: g, Properties: map[string]any{}}
		for _, v := range res.Vars {
			term, bound := row[v]
			if v == geomVar || !bound {
				continue
			}
			if term.Kind == rdf.IRI && f.ID == "" {
				f.ID = term.Value
			}
			f.Properties[v] = term.Value
		}
		if f.ID == "" {
			f.ID = fmt.Sprintf("row/%d", i)
		}
		if err := s.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// serializeCorpus returns result sets covering the term kinds, escaping
// rules, unbound variables, rows without an IRI, rows binding a variable
// outside the projection, and every geometry kind.
func serializeCorpus() []*sparql.Results {
	strs := []string{
		"plain", `say "hi" \ bye`, "<b>&amp;</b>", "tab\there\nnew\rline\x00\x01\b\f\x1f\x7f",
		"sep\u2028para\u2029", "bad\xffutf8\xc3", "ünïcødé \U0001D11E",
	}
	wkts := []string{
		"POINT (1 2)", "POINT (0.0000001 -0)", "POINT (1e21 -3.25)", "POINT (0.1 1e-300)",
		"ENVELOPE (0, 10, 20, -5)", "LINESTRING (0 0, 1 1, 2 0.5)",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 3 2, 3 3, 2 2))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5), (5.2 5.1, 5.5 5.1, 5.5 5.4, 5.2 5.1)))",
		"NOT WKT",
	}
	mixed := &sparql.Results{Vars: []string{"f", "wkt", "label", "typed", "bn", "unbound", "f2"}}
	for i := 0; i < 80; i++ {
		s := strs[i%len(strs)]
		row := map[string]rdf.Term{"wkt": rdf.NewWKTLiteral(wkts[i%len(wkts)])}
		switch i % 6 {
		case 0:
			row["f"] = rdf.NewIRI("http://x/" + s)
			row["label"] = rdf.NewLangLiteral(s, "en-GB")
		case 1: // no IRI
			row["label"] = rdf.NewLiteral(s)
			row["bn"] = rdf.NewBlank("b" + s)
		case 2:
			row["typed"] = rdf.NewTypedLiteral(s, "http://example.org/dt#"+s)
			row["f2"] = rdf.NewIRI(s)
		case 3:
			row["typed"] = rdf.NewFloatLiteral(1e-7)
			row["f2"] = rdf.NewIRI("http://y/" + s)
		case 4: // a variable outside the projection
			row["extra"] = rdf.NewLiteral(s)
			row["f"] = rdf.NewIRI("http://z/" + s)
		case 5: // geometry unbound
			delete(row, "wkt")
			row["label"] = rdf.NewIntLiteral(int64(i))
		}
		mixed.Rows = append(mixed.Rows, row)
	}
	return []*sparql.Results{
		mixed,
		{Vars: []string{"x"}},
		{Vars: []string{}},
		{},
		{Vars: []string{"z", "a", "a"}, Rows: []map[string]rdf.Term{{}, {"a": rdf.NewLiteral("only")}}},
	}
}

func TestWriteResultsMatchesEncodingJSON(t *testing.T) {
	for i, res := range serializeCorpus() {
		var got strings.Builder
		if err := endpoint.WriteResults(&got, endpoint.FormatJSON, res, ""); err != nil {
			t.Fatal(err)
		}
		if want := refSPARQLJSON(t, res); got.String() != want {
			t.Fatalf("result set %d, SPARQL JSON:\n got %s\nwant %s", i, got.String(), want)
		}

		geomVar := endpoint.DetectGeometryVar(res)
		if geomVar == "" && res.Len() > 0 {
			continue
		}
		got.Reset()
		if err := endpoint.WriteResults(&got, endpoint.FormatGeoJSON, res, ""); err != nil {
			t.Fatal(err)
		}
		if want := refGeoJSON(t, res, geomVar); got.String() != want {
			t.Fatalf("result set %d, GeoJSON:\n got %s\nwant %s", i, got.String(), want)
		}
	}
}

// TestWriteResultsGeoJSONNoGeometry pins the GeoJSON writer's error for
// rows with no geometry variable to detect.
func TestWriteResultsGeoJSONNoGeometry(t *testing.T) {
	res := &sparql.Results{Vars: []string{"x"}, Rows: []map[string]rdf.Term{{"x": rdf.NewLiteral("1")}}}
	if err := endpoint.WriteResults(&strings.Builder{}, endpoint.FormatGeoJSON, res, ""); err == nil {
		t.Fatal("want an error")
	}
}
