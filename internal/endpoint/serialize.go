package endpoint

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/jsonappend"
	"repro/internal/rdf"
	"repro/internal/sextant"
	"repro/internal/sparql"
)

// Format enumerates the supported result serializations.
type Format int

const (
	// FormatJSON is W3C SPARQL 1.1 Query Results JSON.
	FormatJSON Format = iota
	// FormatCSV is the SPARQL 1.1 CSV results format.
	FormatCSV
	// FormatTSV is the SPARQL 1.1 TSV results format.
	FormatTSV
	// FormatGeoJSON renders rows binding WKT literals as a GeoJSON
	// FeatureCollection (the Sextant exchange format).
	FormatGeoJSON
)

func (f Format) String() string {
	switch f {
	case FormatJSON:
		return "json"
	case FormatCSV:
		return "csv"
	case FormatTSV:
		return "tsv"
	case FormatGeoJSON:
		return "geojson"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ContentType returns the MIME type the format is served as.
func (f Format) ContentType() string {
	switch f {
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatTSV:
		return "text/tab-separated-values; charset=utf-8"
	case FormatGeoJSON:
		return "application/geo+json"
	default:
		return "application/sparql-results+json"
	}
}

// ParseFormat resolves a format name (as used by the ?format= query
// parameter and the eequery -format flag).
func ParseFormat(s string) (Format, bool) {
	switch strings.ToLower(s) {
	case "json", "sparql-json":
		return FormatJSON, true
	case "csv":
		return FormatCSV, true
	case "tsv":
		return FormatTSV, true
	case "geojson":
		return FormatGeoJSON, true
	default:
		return FormatJSON, false
	}
}

// acceptFormats maps Accept media ranges to formats, most specific first.
var acceptFormats = []struct {
	mime string
	f    Format
}{
	{"application/sparql-results+json", FormatJSON},
	{"application/geo+json", FormatGeoJSON},
	{"application/json", FormatJSON},
	{"text/csv", FormatCSV},
	{"text/tab-separated-values", FormatTSV},
}

// NegotiateFormat picks a format from an Accept header value. Media ranges
// are considered in the order they appear; a range with q=0 is "not
// acceptable" (RFC 9110 §12.4.2) and skipped, other q-values are ignored
// (first supported range wins). Empty or wildcard accepts default to
// SPARQL JSON; ok is false when the header names only unsupported types.
func NegotiateFormat(accept string) (Format, bool) {
	if strings.TrimSpace(accept) == "" {
		return FormatJSON, true
	}
	any := false
	for _, part := range strings.Split(accept, ",") {
		mime, params, _ := strings.Cut(part, ";")
		mime = strings.TrimSpace(mime)
		if rejected(params) {
			continue
		}
		if mime == "*/*" || mime == "application/*" || mime == "text/*" {
			any = true
			continue
		}
		for _, af := range acceptFormats {
			if strings.EqualFold(mime, af.mime) {
				return af.f, true
			}
		}
	}
	if any {
		return FormatJSON, true
	}
	return FormatJSON, false
}

// rejected reports whether a media range's parameters carry a zero
// q-value ("q=0", "q=0.0", "q=0.000").
func rejected(params string) bool {
	for _, p := range strings.Split(params, ";") {
		name, value, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(name), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
			return err == nil && q == 0
		}
	}
	return false
}

// WriteResults serializes res to w in the given format. For FormatGeoJSON,
// geomVar names the variable holding WKT literals; when empty it is
// auto-detected as the first projected variable binding a wktLiteral.
func WriteResults(w io.Writer, f Format, res *sparql.Results, geomVar string) error {
	body, err := appendResults(nil, f, res, geomVar)
	if err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// appendResults appends res serialized in format f to dst. The JSON
// writers append bytes directly, byte-identical to encoding/json's output
// for the map shapes they replace; CSV/TSV go through encoding/csv.
func appendResults(dst []byte, f Format, res *sparql.Results, geomVar string) ([]byte, error) {
	switch f {
	case FormatCSV, FormatTSV:
		sep := ','
		if f == FormatTSV {
			sep = '\t'
		}
		buf := bytes.NewBuffer(dst)
		err := writeSV(buf, res, sep)
		return buf.Bytes(), err
	case FormatGeoJSON:
		return appendGeoJSON(dst, res, geomVar)
	default:
		return appendSPARQLJSON(dst, res), nil
	}
}

// appendSPARQLJSON appends the W3C SPARQL 1.1 JSON results document. Each
// binding object lists its variables in sorted order and each term its
// fields as type, value, datatype, xml:lang (the last two when set).
func appendSPARQLJSON(dst []byte, res *sparql.Results) []byte {
	dst = append(dst, `{"head":{"vars":`...)
	if res.Vars == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range res.Vars {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonappend.String(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `},"results":{"bindings":[`...)
	keys := sortedUnique(res.Vars)
	for i, row := range res.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		mark := len(dst)
		var n int
		if dst, n = appendBinding(dst, row, keys); n != len(row) {
			// The row binds a variable outside the projection: sort its
			// own keys instead.
			keys := make([]string, 0, len(row))
			for v := range row {
				keys = append(keys, v)
			}
			sort.Strings(keys)
			dst, _ = appendBinding(dst[:mark], row, keys)
		}
	}
	return append(dst, "]}}\n"...)
}

// appendBinding appends one binding object over the keys row binds, in
// the order given, and reports how many it wrote.
func appendBinding(dst []byte, row map[string]rdf.Term, keys []string) ([]byte, int) {
	dst = append(dst, '{')
	n := 0
	for _, v := range keys {
		t, ok := row[v]
		if !ok {
			continue
		}
		if n > 0 {
			dst = append(dst, ',')
		}
		n++
		dst = append(jsonappend.String(dst, v), `:{"type":`...)
		switch t.Kind {
		case rdf.IRI:
			dst = append(dst, `"uri"`...)
		case rdf.Blank:
			dst = append(dst, `"bnode"`...)
		default:
			dst = append(dst, `"literal"`...)
		}
		dst = jsonappend.String(append(dst, `,"value":`...), t.Value)
		if t.Kind != rdf.IRI && t.Kind != rdf.Blank {
			if t.Datatype != "" {
				dst = jsonappend.String(append(dst, `,"datatype":`...), t.Datatype)
			}
			if t.Lang != "" {
				dst = jsonappend.String(append(dst, `,"xml:lang":`...), t.Lang)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), n
}

// sortedUnique returns the sorted distinct strings of vs.
func sortedUnique(vs []string) []string {
	out := slices.Clone(vs)
	sort.Strings(out)
	return slices.Compact(out)
}

// writeSV emits the CSV/TSV results formats: a header row of variable
// names, then lexical values (unbound variables serialize empty).
func writeSV(w io.Writer, res *sparql.Results, sep rune) error {
	cw := csv.NewWriter(w)
	cw.Comma = sep
	if err := cw.Write(res.Vars); err != nil {
		return err
	}
	record := make([]string, len(res.Vars))
	for _, row := range res.Rows {
		for i, v := range res.Vars {
			if t, ok := row[v]; ok {
				record[i] = t.Value
			} else {
				record[i] = ""
			}
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DetectGeometryVar returns the first projected variable that binds a
// wktLiteral in any row, or "".
func DetectGeometryVar(res *sparql.Results) string {
	for _, row := range res.Rows {
		for _, v := range res.Vars {
			if t, ok := row[v]; ok && t.Kind == rdf.Literal && t.Datatype == rdf.WKTLiteral {
				return v
			}
		}
	}
	return ""
}

// appendGeoJSON appends rows as a GeoJSON FeatureCollection through
// sextant's row encoder: one feature per row binding a parsable geometry,
// every other projected variable a feature property.
func appendGeoJSON(dst []byte, res *sparql.Results, geomVar string) ([]byte, error) {
	if geomVar == "" {
		geomVar = DetectGeometryVar(res)
	}
	if geomVar == "" && len(res.Rows) > 0 {
		return dst, fmt.Errorf("endpoint: no geometry variable in results (vars %v)", res.Vars)
	}
	dst = sextant.AppendCollectionStart(dst, "results")
	enc := sextant.NewRowEncoder(res.Vars, geomVar, "row/")
	for i, row := range res.Rows {
		var err error
		if dst, err = enc.Append(dst, row, i); err != nil {
			return dst, err
		}
	}
	return sextant.AppendCollectionEnd(dst), nil
}
