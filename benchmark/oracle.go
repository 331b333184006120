package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// oracle answers every query class by brute force over the benchmark's
// own model of the data: the generated features plus every ingest batch
// the server acknowledged. It shares no code with the server.
type oracle struct {
	points  []pointFeature
	parcels []polyFeature
	zones   []polyFeature
}

func newOracle(d *dataset) *oracle {
	return &oracle{points: append([]pointFeature(nil), d.points...), parcels: d.parcels, zones: d.zones}
}

// acknowledge adds a batch the server confirmed.
func (o *oracle) acknowledge(b *ingestBatch) { o.points = append(o.points, b.features...) }

// check compares a response body with the oracle's answer to q.
func (o *oracle) check(q *query, body []byte) error {
	if q.class == classWindow {
		got, err := geoJSONIDs(body)
		if err != nil {
			return err
		}
		var want []string
		for _, p := range o.points {
			if q.win.contains(p.at) {
				want = append(want, p.iri())
			}
		}
		return sameSet(got, want)
	}
	rows, err := sparqlJSONRows(body)
	if err != nil {
		return err
	}
	switch q.class {
	case classJoinFilter:
		var want []string
		for _, p := range o.points {
			if p.band0 == q.band && float64(p.value) >= q.lo && float64(p.value) < q.hi {
				want = append(want, p.iri()+"|"+strconv.Itoa(p.band1)+"|"+strconv.Itoa(p.value))
			}
		}
		return sameSet(joinRows(rows, "f", "c", "v"), want)
	case classCountGroup:
		counts := map[int]int{}
		for _, z := range o.zones {
			if float64(z.value) >= q.lo {
				counts[z.value]++
			}
		}
		var want []string
		for v, n := range counts {
			want = append(want, strconv.Itoa(v)+"|"+strconv.Itoa(n))
		}
		return sameSet(joinRows(rows, "v", "n"), want)
	case classOrderByLimit:
		return o.checkTopK(q, rows)
	case classDistinct:
		seen := map[int]bool{}
		var want []string
		for _, p := range o.points {
			if p.band1 == q.band && float64(p.band0) >= q.lo && !seen[p.band0] {
				seen[p.band0] = true
				want = append(want, strconv.Itoa(p.band0))
			}
		}
		return sameSet(joinRows(rows, "b"), want)
	case classSpatialJoin:
		var want []string
		for _, p := range o.parcels {
			if float64(p.value) < q.lo || float64(p.value) >= q.hi {
				continue
			}
			for _, z := range o.zones {
				if ringsIntersect(p.ring, z.ring) {
					want = append(want, p.iri()+"|"+z.iri())
				}
			}
		}
		return sameSet(joinRows(rows, "p", "z"), want)
	}
	return fmt.Errorf("oracle: unknown class %d", q.class)
}

// checkTopK verifies ORDER BY DESC ?v LIMIT k: the value sequence must be
// exactly the k largest qualifying values in order, and every returned
// feature must be a distinct qualifying feature with that value (ties at
// the cut may be broken either way).
func (o *oracle) checkTopK(q *query, rows []map[string]string) error {
	byIRI := map[string]int{}
	var values []int
	for _, p := range o.points {
		if p.band1 == q.band && float64(p.value) < q.hi {
			byIRI[p.iri()] = p.value
			values = append(values, p.value)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(values)))
	values = values[:min(orderByLimitK, len(values))]
	if len(rows) != len(values) {
		return fmt.Errorf("top-k: got %d rows, want %d", len(rows), len(values))
	}
	used := map[string]bool{}
	for i, row := range rows {
		f, v := row["f"], row["v"]
		if v != strconv.Itoa(values[i]) {
			return fmt.Errorf("top-k: row %d has value %s, want %d", i, v, values[i])
		}
		if have, ok := byIRI[f]; !ok || have != values[i] || used[f] {
			return fmt.Errorf("top-k: row %d feature %s does not qualify with value %s", i, f, v)
		}
		used[f] = true
	}
	return nil
}

func joinRows(rows []map[string]string, vars ...string) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		s := row[vars[0]]
		for _, v := range vars[1:] {
			s += "|" + row[v]
		}
		out[i] = s
	}
	return out
}

// sameSet reports the first difference between two result sets; a
// repeated member counts as a difference.
func sameSet(got, want []string) error {
	sort.Strings(got)
	sort.Strings(want)
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Errorf("result set: %d rows, want %d; missing %s", len(got), len(want), want[i])
		case i >= len(want):
			return fmt.Errorf("result set: %d rows, want %d; unexpected %s", len(got), len(want), got[i])
		case got[i] != want[i]:
			return fmt.Errorf("result set differs at sorted row %d: got %s, want %s", i, got[i], want[i])
		}
	}
	return nil
}

func geoJSONIDs(body []byte) ([]string, error) {
	var doc struct {
		Type     string `json:"type"`
		Features []struct {
			ID string `json:"id"`
		} `json:"features"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("GeoJSON body: %w", err)
	}
	if doc.Type != "FeatureCollection" {
		return nil, fmt.Errorf("GeoJSON body: type %q, want FeatureCollection", doc.Type)
	}
	ids := make([]string, len(doc.Features))
	for i, f := range doc.Features {
		ids[i] = f.ID
	}
	return ids, nil
}

func sparqlJSONRows(body []byte) ([]map[string]string, error) {
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("SPARQL JSON body: %w", err)
	}
	rows := make([]map[string]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		rows[i] = make(map[string]string, len(b))
		for k, v := range b {
			rows[i][k] = v.Value
		}
	}
	return rows, nil
}

// ringsIntersect reports whether two simple polygons share a point:
// their boundaries cross or touch, or one contains the other.
func ringsIntersect(a, b []xy) bool {
	ax0, ay0, ax1, ay1 := ringBounds(a)
	bx0, by0, bx1, by1 := ringBounds(b)
	if ax1 < bx0 || bx1 < ax0 || ay1 < by0 || by1 < ay0 {
		return false
	}
	for i := range a {
		a0, a1 := a[i], a[(i+1)%len(a)]
		for j := range b {
			if segmentsIntersect(a0, a1, b[j], b[(j+1)%len(b)]) {
				return true
			}
		}
	}
	return pointInRing(a[0], b) || pointInRing(b[0], a)
}

func ringBounds(r []xy) (x0, y0, x1, y1 float64) {
	x0, y0, x1, y1 = r[0].x, r[0].y, r[0].x, r[0].y
	for _, p := range r[1:] {
		x0, x1 = min(x0, p.x), max(x1, p.x)
		y0, y1 = min(y0, p.y), max(y1, p.y)
	}
	return
}

func cross(o, a, b xy) float64 { return (a.x-o.x)*(b.y-o.y) - (a.y-o.y)*(b.x-o.x) }

func onSegment(a, b, p xy) bool {
	return min(a.x, b.x) <= p.x && p.x <= max(a.x, b.x) && min(a.y, b.y) <= p.y && p.y <= max(a.y, b.y)
}

func segmentsIntersect(p1, p2, q1, q2 xy) bool {
	d1, d2 := cross(q1, q2, p1), cross(q1, q2, p2)
	d3, d4 := cross(p1, p2, q1), cross(p1, p2, q2)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) && ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return (d1 == 0 && onSegment(q1, q2, p1)) || (d2 == 0 && onSegment(q1, q2, p2)) ||
		(d3 == 0 && onSegment(p1, p2, q1)) || (d4 == 0 && onSegment(p1, p2, q2))
}

func pointInRing(p xy, ring []xy) bool {
	in := false
	for i, j := 0, len(ring)-1; i < len(ring); j, i = i, i+1 {
		a, b := ring[i], ring[j]
		if (a.y > p.y) != (b.y > p.y) && p.x < (b.x-a.x)*(p.y-a.y)/(b.y-a.y)+a.x {
			in = !in
		}
	}
	return in
}
