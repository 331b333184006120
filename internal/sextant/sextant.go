// Package sextant implements the visualization layer of the TELEIOS/LEO
// stack the paper builds on (Nikolaou et al., "Sextant: Visualizing
// time-evolving linked geospatial data" [5]): it renders query results
// and feature sets as GeoJSON FeatureCollections and assembles them into
// named map layers, the exchange format every web map client consumes.
package sextant

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/geom"
	"repro/internal/jsonappend"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// Feature is one map feature: a geometry with properties.
type Feature struct {
	ID         string
	Geometry   geom.Geometry
	Properties map[string]any
	// Timestamp enables time-evolving layers (Sextant's distinguishing
	// capability); zero means static.
	Timestamp time.Time
}

// Layer is a named collection of features.
type Layer struct {
	Name     string
	Features []Feature
}

// Map is a set of layers to render together.
type Map struct {
	Title  string
	Layers []Layer
}

// appendGeometry appends g as a GeoJSON geometry object. Keys come in
// the sorted order encoding/json gives a map ("coordinates" before
// "type"); a Rect is written as a Polygon and every polygon ring is
// closed by repeating its first point. A NaN or infinite
// coordinate, which JSON cannot express, is an error.
func appendGeometry(dst []byte, g geom.Geometry) ([]byte, error) {
	var kind string
	c := coordWriter{b: append(dst, `{"coordinates":`...)}
	switch gg := g.(type) {
	case geom.Point:
		kind = "Point"
		c.point(gg)
	case geom.Rect:
		kind = "Polygon"
		c.polygon(geom.Polygon{Shell: geom.Ring{gg.Min, {X: gg.Max.X, Y: gg.Min.Y}, gg.Max, {X: gg.Min.X, Y: gg.Max.Y}}})
	case geom.LineString:
		kind = "LineString"
		c.points(gg.Points, false)
	case geom.Polygon:
		kind = "Polygon"
		c.polygon(gg)
	case geom.MultiPolygon:
		kind = "MultiPolygon"
		c.open()
		for i, p := range gg.Polygons {
			c.sep(i)
			c.polygon(p)
		}
		c.close()
	default:
		return dst, fmt.Errorf("sextant: unsupported geometry %T", g)
	}
	if c.bad {
		return dst, fmt.Errorf("sextant: %s has a NaN or infinite coordinate", kind)
	}
	c.b = append(c.b, `,"type":"`...)
	c.b = append(c.b, kind...)
	return append(c.b, `"}`...), nil
}

// coordWriter appends nested GeoJSON coordinate arrays; bad records a
// coordinate JSON cannot express.
type coordWriter struct {
	b   []byte
	bad bool
}

func (c *coordWriter) open()  { c.b = append(c.b, '[') }
func (c *coordWriter) close() { c.b = append(c.b, ']') }

func (c *coordWriter) sep(i int) {
	if i > 0 {
		c.b = append(c.b, ',')
	}
}

func (c *coordWriter) point(p geom.Point) {
	var okX, okY bool
	c.b, okX = jsonappend.Float(append(c.b, '['), p.X)
	c.b, okY = jsonappend.Float(append(c.b, ','), p.Y)
	c.b = append(c.b, ']')
	c.bad = c.bad || !okX || !okY
}

// points writes ps as a coordinate array; closed repeats the first point
// at the end, as a polygon ring needs.
func (c *coordWriter) points(ps []geom.Point, closed bool) {
	c.open()
	for i, p := range ps {
		c.sep(i)
		c.point(p)
	}
	if closed && len(ps) > 0 {
		c.sep(1)
		c.point(ps[0])
	}
	c.close()
}

func (c *coordWriter) polygon(p geom.Polygon) {
	c.open()
	c.points(p.Shell, true)
	for _, h := range p.Holes {
		c.sep(1)
		c.points(h, true)
	}
	c.close()
}

// appendFeatureStart appends a Feature object up to its properties value:
// geometry, then id (omitted when empty), in encoding/json's sorted key
// order. The caller appends the properties object and featureEnd.
func appendFeatureStart(dst []byte, g geom.Geometry, id string) ([]byte, error) {
	dst, err := appendGeometry(append(dst, `{"geometry":`...), g)
	if err != nil {
		return dst, err
	}
	if id != "" {
		dst = jsonappend.String(append(dst, `,"id":`...), id)
	}
	return append(dst, `,"properties":`...), nil
}

const featureEnd = `,"type":"Feature"}`

// appendFeature appends f as one GeoJSON Feature. Properties are written
// in sorted key order, with a non-zero Timestamp as an RFC 3339
// "timestamp" property; string values are appended directly, any other
// value through encoding/json.
func appendFeature(dst []byte, f Feature) ([]byte, error) {
	dst, err := appendFeatureStart(dst, f.Geometry, f.ID)
	if err != nil {
		return dst, err
	}
	keys := make([]string, 0, len(f.Properties)+1)
	for k := range f.Properties {
		if k != "timestamp" || f.Timestamp.IsZero() {
			keys = append(keys, k)
		}
	}
	if !f.Timestamp.IsZero() {
		keys = append(keys, "timestamp")
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(jsonappend.String(dst, k), ':')
		var v any = f.Properties[k]
		if k == "timestamp" && !f.Timestamp.IsZero() {
			v = f.Timestamp.Format(time.RFC3339)
		}
		if s, ok := v.(string); ok {
			dst = jsonappend.String(dst, s)
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		dst = append(dst, b...)
	}
	return append(append(dst, '}'), featureEnd...), nil
}

// AppendCollectionStart opens a FeatureCollection named name; close it
// with AppendCollectionEnd after the comma-separated features.
func AppendCollectionStart(dst []byte, name string) []byte {
	dst = jsonappend.String(append(dst, `{"type":"FeatureCollection","name":`...), name)
	return append(dst, `,"features":[`...)
}

// AppendCollectionEnd closes a FeatureCollection.
func AppendCollectionEnd(dst []byte) []byte { return append(dst, "]}\n"...) }

// GeoJSONStreamer writes a GeoJSON FeatureCollection feature-by-feature,
// so serving layers can stream arbitrarily large result sets to an
// io.Writer without materializing the collection in memory.
type GeoJSONStreamer struct {
	w      io.Writer
	buf    []byte // one feature's bytes, reused
	n      int
	closed bool
}

// NewGeoJSONStreamer starts a FeatureCollection named name on w. The
// caller must Close it to emit valid JSON.
func NewGeoJSONStreamer(w io.Writer, name string) (*GeoJSONStreamer, error) {
	if _, err := w.Write(AppendCollectionStart(nil, name)); err != nil {
		return nil, err
	}
	return &GeoJSONStreamer{w: w}, nil
}

// Write appends one feature to the collection.
func (s *GeoJSONStreamer) Write(f Feature) error {
	b := s.buf[:0]
	if s.n > 0 {
		b = append(b, ',')
	}
	b, err := appendFeature(b, f)
	if err != nil {
		return err
	}
	s.buf = b
	s.n++
	_, err = s.w.Write(b)
	return err
}

// Len returns the number of features written so far.
func (s *GeoJSONStreamer) Len() int { return s.n }

// Close terminates the FeatureCollection. It is idempotent.
func (s *GeoJSONStreamer) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	_, err := s.w.Write(AppendCollectionEnd(nil))
	return err
}

// WriteGeoJSON serializes a layer as a GeoJSON FeatureCollection.
func WriteGeoJSON(w io.Writer, layer Layer) error {
	s, err := NewGeoJSONStreamer(w, layer.Name)
	if err != nil {
		return err
	}
	for _, f := range layer.Features {
		if err := s.Write(f); err != nil {
			return err
		}
	}
	return s.Close()
}

// rowGeometry parses the WKT literal row binds to geomVar; ok is false
// when it is unbound, not a literal or not parsable.
func rowGeometry(row map[string]rdf.Term, geomVar string) (geom.Geometry, bool) {
	wkt, ok := row[geomVar]
	if !ok || wkt.Kind != rdf.Literal {
		return nil, false
	}
	g, err := geom.ParseWKT(wkt.Value)
	return g, err == nil
}

// rowID returns the first IRI row binds to a projected variable other
// than geomVar, or "".
func rowID(row map[string]rdf.Term, vars []string, geomVar string) string {
	for _, v := range vars {
		if t, ok := row[v]; ok && v != geomVar && t.Kind == rdf.IRI && t.Value != "" {
			return t.Value
		}
	}
	return ""
}

// LayerFromResults builds a layer from stSPARQL results: geomVar names
// the variable holding WKT literals; every other projected variable
// becomes a feature property, and the first IRI value the feature ID
// (name/row-index when the row has none). Rows whose geometry variable
// is unbound or unparsable are skipped and counted.
func LayerFromResults(name string, res *sparql.Results, geomVar string) (Layer, int) {
	layer := Layer{Name: name}
	skipped := 0
	for i, row := range res.Rows {
		g, ok := rowGeometry(row, geomVar)
		if !ok {
			skipped++
			continue
		}
		props := map[string]any{}
		for _, v := range res.Vars {
			if t, bound := row[v]; bound && v != geomVar {
				props[v] = t.Value
			}
		}
		id := rowID(row, res.Vars, geomVar)
		if id == "" {
			id = fmt.Sprintf("%s/%d", name, i)
		}
		layer.Features = append(layer.Features, Feature{ID: id, Geometry: g, Properties: props})
	}
	return layer, skipped
}

// RowEncoder appends result rows as the features of a FeatureCollection
// (opened with AppendCollectionStart) with the rules of LayerFromResults
// and the bytes GeoJSONStreamer would write for them, but builds no
// Feature or property map per row: property keys are sorted once and
// values appended as strings.
type RowEncoder struct {
	vars     []string // projection order: the first bound IRI is the id
	keys     []string // property keys: vars without geomVar, sorted, unique
	geomVar  string
	idPrefix string // a row binding no IRI gets the id idPrefix + row index
	n        int    // features appended
}

// NewRowEncoder returns an encoder for rows projecting vars, with the
// geometry in geomVar.
func NewRowEncoder(vars []string, geomVar, idPrefix string) *RowEncoder {
	keys := make([]string, 0, len(vars))
	for _, v := range vars {
		if v != geomVar {
			keys = append(keys, v)
		}
	}
	sort.Strings(keys)
	return &RowEncoder{vars: vars, keys: slices.Compact(keys), geomVar: geomVar, idPrefix: idPrefix}
}

// Append appends row i's feature, comma-separated from the previous one.
// A row whose geometry is unbound, not a literal or not parsable WKT is
// skipped and dst returned unchanged.
func (e *RowEncoder) Append(dst []byte, row map[string]rdf.Term, i int) ([]byte, error) {
	g, ok := rowGeometry(row, e.geomVar)
	if !ok {
		return dst, nil
	}
	id := rowID(row, e.vars, e.geomVar)
	if id == "" {
		id = e.idPrefix + strconv.Itoa(i)
	}
	if e.n > 0 {
		dst = append(dst, ',')
	}
	dst, err := appendFeatureStart(dst, g, id)
	if err != nil {
		return dst, err
	}
	dst = append(dst, '{')
	sep := false
	for _, k := range e.keys {
		t, bound := row[k]
		if !bound {
			continue
		}
		if sep {
			dst = append(dst, ',')
		}
		sep = true
		dst = jsonappend.String(append(jsonappend.String(dst, k), ':'), t.Value)
	}
	e.n++
	return append(append(dst, '}'), featureEnd...), nil
}

// TimeSlice returns the features visible at t: static features plus
// timestamped features with Timestamp <= t (the temporal slider of the
// Sextant UI).
func (l Layer) TimeSlice(t time.Time) Layer {
	out := Layer{Name: l.Name}
	for _, f := range l.Features {
		if f.Timestamp.IsZero() || !f.Timestamp.After(t) {
			out.Features = append(out.Features, f)
		}
	}
	return out
}

// Bounds returns the layer's spatial extent; ok is false for an empty
// layer.
func (l Layer) Bounds() (geom.Rect, bool) {
	if len(l.Features) == 0 {
		return geom.Rect{}, false
	}
	b := l.Features[0].Geometry.Bounds()
	for _, f := range l.Features[1:] {
		b = b.Union(f.Geometry.Bounds())
	}
	return b, true
}
