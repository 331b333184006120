package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// Query classes. Window workloads have one class; analytic has five and
// reports a latency per class, so a regression names its class.
const (
	classWindow = iota
	classJoinFilter
	classCountGroup
	classOrderByLimit
	classDistinct
	classSpatialJoin
	numClasses
)

var classNames = [numClasses]string{
	"window", "join_filter", "count_group", "orderby_limit", "distinct", "spatial_join",
}

const (
	acceptGeoJSON = "application/geo+json"
	acceptJSON    = "application/sparql-results+json"

	windowSize = 200.0
	hotTiles   = 200 // fits the server's 256-entry result cache
	zipfS      = 1.2

	prefixes = "PREFIX ee: <http://extremeearth.eu/ontology#>\n" +
		"PREFIX geo: <http://www.opengis.net/ont/geosparql#>\n" +
		"PREFIX geof: <http://www.opengis.net/def/function/geosparql/>\n"
)

// rect is an axis-parallel window. Window edges carry a third decimal
// of 5 while every coordinate in the dataset has two decimals, so no
// point ever lies on an edge and the oracle needs no boundary rule.
type rect struct{ x0, y0, x1, y1 float64 }

func (r rect) contains(p xy) bool { return p.x > r.x0 && p.x < r.x1 && p.y > r.y0 && p.y < r.y1 }

func (r rect) wkt() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	x0, y0, x1, y1 := f(r.x0), f(r.y0), f(r.x1), f(r.y1)
	return "POLYGON((" + x0 + " " + y0 + ", " + x1 + " " + y0 + ", " + x1 + " " + y1 + ", " + x0 + " " + y1 + ", " + x0 + " " + y0 + "))"
}

// windowAt returns the size×size window whose lower corner is (x, y)
// truncated to two decimals plus 0.005.
func windowAt(x, y, size float64) rect {
	x0, y0 := math.Floor(x*100)/100+0.005, math.Floor(y*100)/100+0.005
	return rect{x0, y0, x0 + size, y0 + size}
}

// query is one SPARQL request plus the parameters the oracle needs to
// answer it independently.
type query struct {
	class  int
	text   string
	accept string
	win    rect    // window
	band   int     // join_filter, orderby_limit, distinct
	lo, hi float64 // value / band range of the analytic classes
}

func windowQuery(w rect) query {
	return query{
		class:  classWindow,
		accept: acceptGeoJSON,
		win:    w,
		text: prefixes + "SELECT ?f ?wkt WHERE { ?f a ee:Feature . ?f geo:hasGeometry ?g . ?g geo:asWKT ?wkt . " +
			"FILTER(geof:sfIntersects(?wkt, \"" + w.wkt() + "\"^^geo:wktLiteral)) }",
	}
}

// markerQuery is the read-your-writes probe for a just-acknowledged
// batch: a one-unit window around the batch's marker feature.
func markerQuery(m pointFeature) query {
	return windowQuery(windowAt(m.at.x-0.5, m.at.y-0.5, 1))
}

const orderByLimitK = 10

// analyticQuery returns operation i of the analytic mix. The five
// classes take turns, so every stretch of traffic holds exactly equal
// shares of them. Every query carries a constant with six random
// decimals, so no query text repeats and neither the result cache nor
// the plan cache can answer it.
func analyticQuery(i int, r *rng) query {
	q := query{class: classJoinFilter + i%5, accept: acceptJSON, band: r.intn(256)}
	frac := func(span float64) float64 { return math.Floor(r.float()*span*1e6) / 1e6 }
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	switch q.class {
	case classJoinFilter:
		q.lo = frac(500)
		q.hi = q.lo + 500
		q.text = fmt.Sprintf("%sSELECT ?f ?c ?v WHERE { ?f ee:band0 %d . ?f ee:band1 ?c . ?f ee:value ?v . FILTER(?v >= %s && ?v < %s) }",
			prefixes, q.band, num(q.lo), num(q.hi))
	case classCountGroup:
		q.lo = frac(500)
		q.text = fmt.Sprintf("%sSELECT ?v (COUNT(?z) AS ?n) WHERE { ?z a ee:Zone . ?z ee:value ?v . FILTER(?v >= %s) } GROUP BY ?v",
			prefixes, num(q.lo))
	case classOrderByLimit:
		q.hi = 500 + frac(500)
		q.text = fmt.Sprintf("%sSELECT ?f ?v WHERE { ?f ee:band1 %d . ?f ee:value ?v . FILTER(?v < %s) } ORDER BY DESC ?v LIMIT %d",
			prefixes, q.band, num(q.hi), orderByLimitK)
	case classDistinct:
		q.lo = frac(128)
		q.text = fmt.Sprintf("%sSELECT DISTINCT ?b WHERE { ?f ee:band1 %d . ?f ee:band0 ?b . FILTER(?b >= %s) }",
			prefixes, q.band, num(q.lo))
	case classSpatialJoin:
		q.lo = frac(970)
		q.hi = q.lo + 30
		q.text = fmt.Sprintf("%sSELECT ?p ?z WHERE { ?p a ee:Parcel . ?p ee:value ?v . ?p geo:hasGeometry ?pg . ?pg geo:asWKT ?gp . "+
			"?z a ee:Zone . ?z geo:hasGeometry ?zg . ?zg geo:asWKT ?gz . "+
			"FILTER(geof:sfIntersects(?gp, ?gz)) FILTER(?v >= %s && ?v < %s) }",
			prefixes, num(q.lo), num(q.hi))
	}
	return q
}

// workload is one named traffic mix. Its server flags and its offered
// rate are part of its definition, not options of the benchmark: both
// sides of a comparison face the same server configuration and the same
// offered load.
type workload struct {
	name string
	// openRate is the fixed open-phase arrival rate in requests per
	// second, 18 to 35 % of the seed's closed-phase rate on the reference
	// container. It is never derived at run time.
	openRate float64
	// queryWorkers is eeserve's -query-workers; 0 leaves the default, the
	// sequential executor.
	queryWorkers int
	// wantCache is the X-Cache class every timed response must carry.
	wantCache string
	// writer gives the second connection to a writer that posts ingest
	// batches; without one both connections send queries.
	writer bool
	// units splits the measured seconds into warm-up, closed phase and
	// open phase. ingest-read has no closed phase: a back-to-back reader
	// interleaves with a load's inserts, each interleaved read makes the
	// seed re-sort its whole index once more, and how often that happens
	// is a race, not a property of the code under test.
	units [3]int
	// openWindows is how many equal windows the open phase is cut into
	// for its latency percentiles (quarter-second windows at 12 measured
	// seconds; see windowedPercentiles). A workload with a writer has one
	// window per load, so every window holds the same traffic.
	openWindows int
	// draw returns operation i's query.
	draw func(g *generator, i int, r *rng) query
}

var workloads = []*workload{
	{
		name: "window-hot", openRate: 2000, wantCache: "HIT", units: [3]int{1, 4, 7}, openWindows: 28,
		draw: func(g *generator, i int, r *rng) query { return g.tiles[g.zipf(r.float())] },
	},
	{
		name: "window-cold", openRate: 600, wantCache: "MISS", units: [3]int{1, 4, 7}, openWindows: 28,
		draw: func(g *generator, i int, r *rng) query { return coldWindow(r) },
	},
	{
		name: "analytic", openRate: 225, wantCache: "MISS", units: [3]int{1, 4, 7}, openWindows: 28,
		queryWorkers: 2,
		draw:         func(g *generator, i int, r *rng) query { return analyticQuery(i, r) },
	},
	{
		name: "ingest-read", openRate: 300, wantCache: "MISS", writer: true, units: [3]int{1, 0, 11}, openWindows: 3,
		draw: func(g *generator, i int, r *rng) query { return coldWindow(r) },
	},
}

// readers is the number of query connections.
func (w *workload) readers() int {
	if w.writer {
		return maxConns - 1
	}
	return maxConns
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func coldWindow(r *rng) query {
	return windowQuery(windowAt(r.float()*(extentSize-windowSize), r.float()*(extentSize-windowSize), windowSize))
}

// Operation streams. Each phase of a run draws from its own stream, so
// lengthening one phase never shifts another's inputs.
const (
	streamDataset = 1 + iota
	streamTiles
	streamVerifyBefore
	streamVerifyAfter
	streamWarm
	streamClosed
	streamOpen
	streamPhaseLoads
	streamBurstLoads
)

// generator derives a workload's operations from the seed. Operation i of
// a stream depends only on (seed, stream, i), so connections can claim
// operations in any order without changing what is sent.
type generator struct {
	w     *workload
	seed  int64
	tiles []query   // window-hot's fixed working set
	cdf   []float64 // Zipf over tiles
}

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{w: w, seed: seed}
	// The hot set is a seeded choice of distinct tiles of the 200-unit grid.
	side := int(extentSize / windowSize)
	cells := make([]int, side*side)
	for i := range cells {
		cells[i] = i
	}
	r := newRNG(seed, streamTiles)
	sum := 0.0
	for i := 0; i < hotTiles; i++ {
		j := i + r.intn(len(cells)-i)
		cells[i], cells[j] = cells[j], cells[i]
		c := cells[i]
		g.tiles = append(g.tiles, windowQuery(windowAt(float64(c%side)*windowSize, float64(c/side)*windowSize, windowSize)))
		sum += 1 / math.Pow(float64(i+1), zipfS)
		g.cdf = append(g.cdf, sum)
	}
	for i := range g.cdf {
		g.cdf[i] /= sum
	}
	return g
}

func (g *generator) zipf(u float64) int {
	i := sort.SearchFloat64s(g.cdf, u)
	if i >= len(g.cdf) {
		i = len(g.cdf) - 1
	}
	return i
}

// op returns operation i of a stream.
func (g *generator) op(stream uint64, i int) query {
	return g.w.draw(g, i, newRNG(g.seed, stream<<32|uint64(i)))
}

// loadGap is how long reads pause around each load of a workload with a
// writer, from 1 ms before the load is posted. A 2 000-triple batch is
// acknowledged within about 8 ms; a read that arrives while its triples
// are still being inserted makes the seed re-sort its whole index one more
// time, and how many reads do so is a race. With the pause every load
// costs exactly one re-sort and one R-tree rebuild, paid by the first
// query after it and by every read queued behind that query.
const loadGap = 12 * time.Millisecond

// schedule is an open phase's arrival plan, fixed before the phase
// starts: operation i is due at due[i] after the phase starts, whatever
// the server does, and load k is posted at loadAt[k].
type schedule struct {
	ops    []query
	due    []time.Duration
	loadAt []time.Duration
}

// openSchedule plans an open phase of length d: reads at the workload's
// fixed rate and, for a workload with a writer, one load in the middle
// of each of its windows.
func (g *generator) openSchedule(d time.Duration) *schedule {
	s := &schedule{}
	if g.w.writer {
		for k := 0; k < g.w.openWindows; k++ {
			s.loadAt = append(s.loadAt, d*time.Duration(2*k+1)/time.Duration(2*g.w.openWindows))
		}
	}
	period := time.Duration(float64(time.Second) / g.w.openRate)
	for due := time.Duration(0); due < d; due += period {
		paused := false
		for _, at := range s.loadAt {
			paused = paused || (due >= at-time.Millisecond && due < at+loadGap)
		}
		if !paused {
			s.ops = append(s.ops, g.op(streamOpen, len(s.ops)))
			s.due = append(s.due, due)
		}
	}
	return s
}

// traceOps bounds how much of a schedule is hashed for the record and
// replayed by the traced run.
const traceOps = 2000

func (s *schedule) head() int { return min(traceOps, len(s.ops)) }

// sha256 identifies the schedule's head: due times and request texts.
func (s *schedule) sha256() string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < s.head(); i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(s.due[i]))
		h.Write(b[:])
		h.Write([]byte(s.ops[i].accept))
		h.Write([]byte(s.ops[i].text))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
