package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// The cop-100k dataset is generated here and nowhere else: the server
// under test only ever sees the N-Triples file, and the benchmark never
// calls geostore.Generate*, so an edit to that file cannot silently change
// the benchmark's inputs.

const (
	extentSize = 10000.0

	nsFeature = "http://extremeearth.eu/feature/"
	nsOnt     = "http://extremeearth.eu/ontology#"
	iriType   = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	iriHasGeo = "http://www.opengis.net/ont/geosparql#hasGeometry"
	iriAsWKT  = "http://www.opengis.net/ont/geosparql#asWKT"
	iriWKT    = "http://www.opengis.net/ont/geosparql#wktLiteral"
	iriInt    = "http://www.w3.org/2001/XMLSchema#integer"

	triplesPerPoint   = 6
	triplesPerPolygon = 4
)

// scale fixes the dataset size. Points sit one per cell of a rows×cols
// grid, uniformly jittered inside the cell (stratified sampling): every
// 200×200 window then holds close to the same number of features on every
// seed, so response sizes and latencies compare across seeds. Polygons
// are stratified the same way on their own grid.
type scale struct {
	pointRows, pointCols int
	polyRows, polyCols   int // per polygon class
	polyRadius           float64
}

var (
	// scaleFull is cop-100k: 100 000 points + 3 000 parcels + 3 000 zones,
	// 624 000 triples.
	scaleFull = scale{pointRows: 250, pointCols: 400, polyRows: 50, polyCols: 60, polyRadius: 60}
	// scaleSmoke is the fixed scale of the package's smoke test.
	scaleSmoke = scale{pointRows: 50, pointCols: 100, polyRows: 10, polyCols: 15, polyRadius: 60}
)

type xy struct{ x, y float64 }

// pointFeature is one ee:Feature: a point with three integer attributes.
type pointFeature struct {
	id                  int
	at                  xy
	value, band0, band1 int
}

func (f pointFeature) iri() string { return nsFeature + "f" + strconv.Itoa(f.id) }

// polyFeature is one ee:Parcel or ee:Zone: a simple star-shaped polygon
// (ring not closed in memory) with an ee:value.
type polyFeature struct {
	class string // "Parcel" or "Zone"
	id    int
	ring  []xy
	value int
}

func (f polyFeature) iri() string {
	return nsFeature + string(f.class[0]+'a'-'A') + strconv.Itoa(f.id)
}

// dataset is the benchmark's own model of what the server holds; the
// oracle answers every verification query from it by brute force.
type dataset struct {
	points  []pointFeature
	parcels []polyFeature
	zones   []polyFeature
	triples int
}

// rng is splitmix64: small, fast and seedable per (seed, stream) without
// the allocation math/rand's source costs, so request generators can
// derive one per operation index.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// round2 keeps two decimals, the precision coordinates are written with,
// so the oracle computes on exactly the numbers the server parses.
func round2(v float64) float64 { return math.Round(v*100) / 100 }

func generateDataset(seed int64, sc scale) *dataset {
	d := &dataset{}
	r := newRNG(seed, streamDataset)
	cw, ch := extentSize/float64(sc.pointCols), extentSize/float64(sc.pointRows)
	for row := 0; row < sc.pointRows; row++ {
		for col := 0; col < sc.pointCols; col++ {
			d.points = append(d.points, pointFeature{
				id:    len(d.points),
				at:    xy{round2((float64(col) + r.float()) * cw), round2((float64(row) + r.float()) * ch)},
				value: r.intn(1000),
				band0: r.intn(256),
				band1: r.intn(256),
			})
		}
	}
	d.parcels = generatePolygons(r, sc, "Parcel")
	d.zones = generatePolygons(r, sc, "Zone")
	d.triples = len(d.points)*triplesPerPoint + (len(d.parcels)+len(d.zones))*triplesPerPolygon
	return d
}

func generatePolygons(r *rng, sc scale, class string) []polyFeature {
	out := make([]polyFeature, 0, sc.polyRows*sc.polyCols)
	cw, ch := extentSize/float64(sc.polyCols), extentSize/float64(sc.polyRows)
	for row := 0; row < sc.polyRows; row++ {
		for col := 0; col < sc.polyCols; col++ {
			cx, cy := (float64(col)+r.float())*cw, (float64(row)+r.float())*ch
			n := 8 + r.intn(9) // 8–16 vertices
			ring := make([]xy, n)
			for i := range ring {
				// Radial jitter on a regular polygon keeps the ring simple.
				a := 2 * math.Pi * float64(i) / float64(n)
				rad := sc.polyRadius * (0.6 + 0.8*r.float())
				ring[i] = xy{round2(cx + rad*math.Cos(a)), round2(cy + rad*math.Sin(a))}
			}
			out = append(out, polyFeature{class: class, id: len(out), ring: ring, value: r.intn(1000)})
		}
	}
	return out
}

func fmtCoord(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

func pointWKT(p xy) string { return "POINT(" + fmtCoord(p.x) + " " + fmtCoord(p.y) + ")" }

func ringWKT(ring []xy) string {
	b := []byte("POLYGON((")
	for _, p := range ring {
		b = append(b, fmtCoord(p.x)...)
		b = append(b, ' ')
		b = append(b, fmtCoord(p.y)...)
		b = append(b, ", "...)
	}
	b = append(b, fmtCoord(ring[0].x)...)
	b = append(b, ' ')
	b = append(b, fmtCoord(ring[0].y)...)
	return string(append(b, "))"...))
}

func writeIntTriple(w *bufio.Writer, subj, prop string, v int) {
	fmt.Fprintf(w, "<%s> <%s%s> \"%d\"^^<%s> .\n", subj, nsOnt, prop, v, iriInt)
}

func writeGeometryTriples(w *bufio.Writer, subj, class, wkt string) {
	fmt.Fprintf(w, "<%s> <%s> <%s%s> .\n", subj, iriType, nsOnt, class)
	fmt.Fprintf(w, "<%s> <%s> <%s/geom> .\n", subj, iriHasGeo, subj)
	fmt.Fprintf(w, "<%s/geom> <%s> \"%s\"^^<%s> .\n", subj, iriAsWKT, wkt, iriWKT)
}

// writePoints serialises point features as N-Triples, triplesPerPoint
// lines each.
func writePoints(w *bufio.Writer, pts []pointFeature) {
	for _, f := range pts {
		s := f.iri()
		writeGeometryTriples(w, s, "Feature", pointWKT(f.at))
		writeIntTriple(w, s, "value", f.value)
		writeIntTriple(w, s, "band0", f.band0)
		writeIntTriple(w, s, "band1", f.band1)
	}
}

func writePolygons(w *bufio.Writer, polys []polyFeature) {
	for _, f := range polys {
		s := f.iri()
		writeGeometryTriples(w, s, f.class, ringWKT(f.ring))
		writeIntTriple(w, s, "value", f.value)
	}
}

// writeNTriples writes the whole dataset to w.
func (d *dataset) writeNTriples(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	writePoints(bw, d.points)
	writePolygons(bw, d.parcels)
	writePolygons(bw, d.zones)
	return bw.Flush()
}

// writeFile writes the dataset to path and returns the file's SHA-256.
func (d *dataset) writeFile(path string) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	if err := d.writeNTriples(io.MultiWriter(f, h)); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ingestBatch is one POST /load body: fresh point features whose first
// member is the batch's marker, the feature a read-your-writes probe
// looks for once the batch is acknowledged.
type ingestBatch struct {
	features []pointFeature
	body     []byte
}

func (b *ingestBatch) triples() int         { return len(b.features) * triplesPerPoint }
func (b *ingestBatch) marker() pointFeature { return b.features[0] }

// generateBatches returns n batches of nFeatures new points each, with
// ids continuing after firstID. They are uniform over the extent: new
// observations arrive anywhere.
func generateBatches(seed int64, stream uint64, firstID, n, nFeatures int) []*ingestBatch {
	r := newRNG(seed, stream)
	out := make([]*ingestBatch, n)
	for i := range out {
		b := &ingestBatch{features: make([]pointFeature, nFeatures)}
		for j := range b.features {
			b.features[j] = pointFeature{
				id:    firstID,
				at:    xy{round2(r.float() * extentSize), round2(r.float() * extentSize)},
				value: r.intn(1000),
				band0: r.intn(256),
				band1: r.intn(256),
			}
			firstID++
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		writePoints(bw, b.features)
		bw.Flush() // writes to memory cannot fail
		b.body = buf.Bytes()
		out[i] = b
	}
	return out
}
