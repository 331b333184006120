package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := NewRect(3, 4, 1, 2) // corners in any order
	if r.Min != (Point{1, 2}) || r.Max != (Point{3, 4}) {
		t.Fatalf("NewRect normalization failed: %+v", r)
	}
	if got := r.Width(); got != 2 {
		t.Errorf("Width = %v, want 2", got)
	}
	if got := r.Height(); got != 2 {
		t.Errorf("Height = %v, want 2", got)
	}
	if got := r.Area(); got != 4 {
		t.Errorf("Area = %v, want 4", got)
	}
	if got := r.Center(); got != (Point{2, 3}) {
		t.Errorf("Center = %v, want (2,3)", got)
	}
}

func TestRectContainsPoint(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5}, true},
		{Point{0, 0}, true},   // corner (closed rect)
		{Point{10, 10}, true}, // far corner
		{Point{10, 5}, true},  // edge
		{Point{-0.001, 5}, false},
		{Point{5, 10.001}, false},
	}
	for _, c := range cases {
		if got := r.ContainsPoint(c.p); got != c.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	cases := []struct {
		b    Rect
		want bool
	}{
		{NewRect(5, 5, 15, 15), true},
		{NewRect(10, 10, 20, 20), true}, // corner touch counts
		{NewRect(11, 11, 20, 20), false},
		{NewRect(2, 2, 3, 3), true}, // contained
		{NewRect(-5, 4, -1, 6), false},
		{NewRect(-5, 4, 0, 6), true}, // edge touch
	}
	for _, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("Intersects(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("Intersects symmetric (%v) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestRectIntersection(t *testing.T) {
	a := NewRect(0, 0, 10, 10)
	b := NewRect(5, 5, 15, 15)
	got, ok := a.Intersection(b)
	if !ok || got != NewRect(5, 5, 10, 10) {
		t.Fatalf("Intersection = %v, %v", got, ok)
	}
	if _, ok := a.Intersection(NewRect(20, 20, 30, 30)); ok {
		t.Fatal("disjoint rects reported intersection")
	}
}

func TestRectUnionProperty(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3, x4, y4 float64) bool {
		a := NewRect(clamp(x1), clamp(y1), clamp(x2), clamp(y2))
		b := NewRect(clamp(x3), clamp(y3), clamp(x4), clamp(y4))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return math.Mod(f, 1e6)
}

func TestPolygonArea(t *testing.T) {
	sq := Polygon{Shell: Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}}}
	if got := sq.Area(); got != 16 {
		t.Errorf("square area = %v, want 16", got)
	}
	withHole := Polygon{
		Shell: Ring{{0, 0}, {4, 0}, {4, 4}, {0, 4}},
		Holes: []Ring{{{1, 1}, {2, 1}, {2, 2}, {1, 2}}},
	}
	if got := withHole.Area(); got != 15 {
		t.Errorf("area with hole = %v, want 15", got)
	}
}

func TestPolygonContainsPoint(t *testing.T) {
	poly := Polygon{
		Shell: Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
		Holes: []Ring{{{4, 4}, {6, 4}, {6, 6}, {4, 6}}},
	}
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{1, 1}, true},
		{Point{5, 5}, false}, // in the hole
		{Point{4, 4}, true},  // hole boundary belongs to polygon
		{Point{0, 0}, true},  // shell boundary
		{Point{11, 5}, false},
		{Point{5, 0}, true}, // on shell edge
	}
	for _, c := range cases {
		if got := polygonContainsPoint(poly, c.p); got != c.want {
			t.Errorf("polygonContainsPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestIntersectsPolygonPolygon(t *testing.T) {
	a := Polygon{Shell: Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}
	b := Polygon{Shell: Ring{{5, 5}, {15, 5}, {15, 15}, {5, 15}}}
	c := Polygon{Shell: Ring{{20, 20}, {30, 20}, {30, 30}, {20, 30}}}
	inner := Polygon{Shell: Ring{{2, 2}, {3, 2}, {3, 3}, {2, 3}}}

	if !Intersects(a, b) {
		t.Error("overlapping polygons should intersect")
	}
	if Intersects(a, c) {
		t.Error("disjoint polygons should not intersect")
	}
	if !Intersects(a, inner) {
		t.Error("contained polygon should intersect container")
	}
	// cross shape: boundaries cross but no vertex inside the other
	horiz := Polygon{Shell: Ring{{-1, 4}, {11, 4}, {11, 6}, {-1, 6}}}
	vert := Polygon{Shell: Ring{{4, -1}, {6, -1}, {6, 11}, {4, 11}}}
	if !Intersects(horiz, vert) {
		t.Error("crossing polygons should intersect")
	}
}

func TestContains(t *testing.T) {
	outer := Polygon{Shell: Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}}}
	inner := Polygon{Shell: Ring{{2, 2}, {3, 2}, {3, 3}, {2, 3}}}
	overlap := Polygon{Shell: Ring{{5, 5}, {15, 5}, {15, 15}, {5, 15}}}

	if !Contains(outer, inner) {
		t.Error("outer should contain inner")
	}
	if Contains(outer, overlap) {
		t.Error("outer should not contain overlapping polygon")
	}
	if Contains(inner, outer) {
		t.Error("inner cannot contain outer")
	}
	if !Within(inner, outer) {
		t.Error("Within should mirror Contains")
	}
	r := NewRect(0, 0, 10, 10)
	if !Contains(r, Point{5, 5}) {
		t.Error("rect should contain interior point")
	}
	if !Contains(r, NewRect(1, 1, 2, 2)) {
		t.Error("rect should contain inner rect")
	}
	if Contains(r, NewRect(5, 5, 15, 15)) {
		t.Error("rect should not contain overlapping rect")
	}
}

func TestContainsPolygonWithHole(t *testing.T) {
	donut := Polygon{
		Shell: Ring{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
		Holes: []Ring{{{4, 4}, {6, 4}, {6, 6}, {4, 6}}},
	}
	inHole := Point{5, 5}
	if Contains(donut, inHole) {
		t.Error("point in hole should not be contained")
	}
	if !Contains(donut, Point{1, 1}) {
		t.Error("point in annulus should be contained")
	}
}

func TestDistance(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if got := Distance(a, b); got != 5 {
		t.Errorf("point distance = %v, want 5", got)
	}
	r := NewRect(10, 0, 20, 10)
	if got := Distance(a, r); got != 10 {
		t.Errorf("point-rect distance = %v, want 10", got)
	}
	if got := Distance(Point{15, 5}, r); got != 0 {
		t.Errorf("inside point distance = %v, want 0", got)
	}
	p1 := Polygon{Shell: Ring{{0, 0}, {1, 0}, {1, 1}, {0, 1}}}
	p2 := Polygon{Shell: Ring{{3, 0}, {4, 0}, {4, 1}, {3, 1}}}
	if got := Distance(p1, p2); math.Abs(got-2) > 1e-9 {
		t.Errorf("polygon distance = %v, want 2", got)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cases := []struct {
		a, b, c, d Point
		want       bool
	}{
		{Point{0, 0}, Point{10, 10}, Point{0, 10}, Point{10, 0}, true}, // X cross
		{Point{0, 0}, Point{10, 0}, Point{5, 0}, Point{15, 0}, true},   // collinear overlap
		{Point{0, 0}, Point{10, 0}, Point{10, 0}, Point{20, 10}, true}, // endpoint touch
		{Point{0, 0}, Point{10, 0}, Point{0, 1}, Point{10, 1}, false},  // parallel
		{Point{0, 0}, Point{1, 1}, Point{2, 2}, Point{3, 3}, false},    // collinear disjoint
		{Point{0, 0}, Point{10, 0}, Point{5, 0.001}, Point{5, 5}, false} /* near miss */}
	for i, c := range cases {
		if got := segmentsIntersect(c.a, c.b, c.c, c.d); got != c.want {
			t.Errorf("case %d: segmentsIntersect = %v, want %v", i, got, c.want)
		}
	}
}

func TestWKTRoundTrip(t *testing.T) {
	cases := []string{
		"POINT (1.5 -2.5)",
		"LINESTRING (0 0, 1 1, 2 0)",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))",
		"POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))",
		"MULTIPOLYGON (((0 0, 1 0, 1 1, 0 1, 0 0)), ((5 5, 6 5, 6 6, 5 6, 5 5)))",
	}
	for _, in := range cases {
		g, err := ParseWKT(in)
		if err != nil {
			t.Fatalf("ParseWKT(%q): %v", in, err)
		}
		out := g.WKT()
		g2, err := ParseWKT(out)
		if err != nil {
			t.Fatalf("re-parse %q: %v", out, err)
		}
		if g.WKT() != g2.WKT() {
			t.Errorf("round trip mismatch: %q -> %q -> %q", in, out, g2.WKT())
		}
	}
}

func TestWKTEnvelope(t *testing.T) {
	g, err := ParseWKT("ENVELOPE(0, 10, 20, 5)")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := g.(Rect)
	if !ok {
		t.Fatalf("ENVELOPE parsed to %T", g)
	}
	want := NewRect(0, 5, 10, 20)
	if r != want {
		t.Errorf("ENVELOPE = %v, want %v", r, want)
	}
}

func TestWKTErrors(t *testing.T) {
	bad := []string{
		"",
		"CIRCLE (0 0, 5)",
		"POINT (1)",
		"POINT (1 2",
		"POLYGON ((0 0, 1 1))",
		"POINT (1 2) trailing",
		"LINESTRING (0 0)",
	}
	for _, in := range bad {
		if _, err := ParseWKT(in); err == nil {
			t.Errorf("ParseWKT(%q) succeeded, want error", in)
		}
	}
}

func TestRegularPolygon(t *testing.T) {
	p := RegularPolygon(Point{0, 0}, 10, 64)
	if len(p.Shell) != 64 {
		t.Fatalf("vertex count = %d, want 64", len(p.Shell))
	}
	// area should approach pi*r^2
	want := math.Pi * 100
	if got := p.Area(); math.Abs(got-want)/want > 0.01 {
		t.Errorf("area = %v, want about %v", got, want)
	}
	if !polygonContainsPoint(p, Point{0, 0}) {
		t.Error("center should be inside")
	}
}

func TestRTreeInsertSearch(t *testing.T) {
	tr := NewRTree()
	rng := rand.New(rand.NewSource(1))
	type item struct {
		r  Rect
		id int64
	}
	var items []item
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		r := NewRect(x, y, x+rng.Float64()*10, y+rng.Float64()*10)
		tr.Insert(r, int64(i))
		items = append(items, item{r, int64(i)})
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d, want 500", tr.Len())
	}
	window := NewRect(100, 100, 300, 300)
	want := map[int64]bool{}
	for _, it := range items {
		if it.r.Intersects(window) {
			want[it.id] = true
		}
	}
	got := map[int64]bool{}
	tr.Search(window, func(_ Rect, id int64) bool {
		got[id] = true
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Search found %d, want %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("missing id %d", id)
		}
	}
}

func TestRTreeBulkLoadMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 2000
	bounds := make([]Rect, n)
	data := make([]int64, n)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		bounds[i] = NewRect(x, y, x+rng.Float64()*5, y+rng.Float64()*5)
		data[i] = int64(i)
	}
	tr := NewRTree()
	tr.BulkLoad(bounds, data)
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for trial := 0; trial < 20; trial++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		window := NewRect(x, y, x+100, y+100)
		want := map[int64]bool{}
		for i := range bounds {
			if bounds[i].Intersects(window) {
				want[data[i]] = true
			}
		}
		got := map[int64]bool{}
		tr.Search(window, func(_ Rect, id int64) bool {
			got[id] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
	}
}

// TestRTreeInsertAfterBulkLoad checks the shape geostore now builds — an
// STR-packed tree grown by incremental inserts — against brute force on
// every query kind, across tree sizes on both sides of a node split.
func TestRTreeInsertAfterBulkLoad(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randomRect := func() Rect {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			return NewRect(x, y, x+rng.Float64()*rng.Float64()*40, y+rng.Float64()*rng.Float64()*40)
		}
		bulk, inserts := rng.Intn(600), rng.Intn(600)
		bounds := make([]Rect, bulk, bulk+inserts)
		data := make([]int64, bulk, bulk+inserts)
		for i := range bounds {
			bounds[i], data[i] = randomRect(), int64(i)
		}
		tr := NewRTree()
		tr.BulkLoad(bounds, data)
		for i := bulk; i < bulk+inserts; i++ {
			r := randomRect()
			tr.Insert(r, int64(i))
			bounds, data = append(bounds, r), append(data, int64(i))
		}
		if tr.Len() != len(bounds) {
			t.Fatalf("seed %d: Len = %d, want %d", seed, tr.Len(), len(bounds))
		}
		collect := func(search func(Rect, func(Rect, int64) bool), window Rect) []int64 {
			var ids []int64
			search(window, func(b Rect, id int64) bool {
				if b != bounds[id] {
					t.Fatalf("seed %d: entry %d reported with bounds %v, want %v", seed, id, b, bounds[id])
				}
				ids = append(ids, id)
				return true
			})
			slices.Sort(ids)
			return ids
		}
		for trial := 0; trial < 25; trial++ {
			x, y := rng.Float64()*900, rng.Float64()*900
			window := NewRect(x, y, x+rng.Float64()*200, y+rng.Float64()*200)
			var hit, inside []int64
			for i, b := range bounds {
				if b.Intersects(window) {
					hit = append(hit, int64(i))
				}
				if window.ContainsRect(b) {
					inside = append(inside, int64(i))
				}
			}
			if got := collect(tr.Search, window); !slices.Equal(got, hit) {
				t.Fatalf("seed %d: Search(%v) = %v, want %v", seed, window, got, hit)
			}
			if got := collect(tr.SearchContained, window); !slices.Equal(got, inside) {
				t.Fatalf("seed %d: SearchContained(%v) = %v, want %v", seed, window, got, inside)
			}

			// Nearest may break distance ties either way, so compare the
			// distances, which are unique as a sorted sequence.
			p, k := Point{rng.Float64() * 1000, rng.Float64() * 1000}, 1+rng.Intn(20)
			dists := make([]float64, len(bounds))
			for i, b := range bounds {
				dists[i] = b.DistanceToPoint(p)
			}
			slices.Sort(dists)
			got := tr.Nearest(p, k)
			if len(got) != min(k, len(bounds)) {
				t.Fatalf("seed %d: Nearest returned %d ids, want %d", seed, len(got), min(k, len(bounds)))
			}
			for i, id := range got {
				if d := bounds[id].DistanceToPoint(p); d != dists[i] {
					t.Fatalf("seed %d: Nearest #%d is id %d at distance %g, want distance %g", seed, i, id, d, dists[i])
				}
			}
		}
	}
}

func TestRTreeSearchContained(t *testing.T) {
	tr := NewRTree()
	tr.Insert(NewRect(1, 1, 2, 2), 1)
	tr.Insert(NewRect(5, 5, 20, 20), 2) // intersects window but not contained
	tr.Insert(NewRect(6, 6, 7, 7), 3)
	window := NewRect(0, 0, 10, 10)
	var ids []int64
	tr.SearchContained(window, func(_ Rect, id int64) bool {
		ids = append(ids, id)
		return true
	})
	if len(ids) != 2 {
		t.Fatalf("contained results = %v, want ids 1 and 3", ids)
	}
}

func TestRTreeEarlyStop(t *testing.T) {
	tr := NewRTree()
	for i := 0; i < 100; i++ {
		tr.Insert(NewRect(float64(i), 0, float64(i)+0.5, 1), int64(i))
	}
	count := 0
	tr.Search(NewRect(0, 0, 100, 1), func(_ Rect, _ int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d, want 5", count)
	}
}

func TestRTreeNearest(t *testing.T) {
	tr := NewRTree()
	for i := 0; i < 10; i++ {
		p := Point{float64(i * 10), 0}
		tr.Insert(p.Bounds(), int64(i))
	}
	got := tr.Nearest(Point{42, 0}, 2)
	if len(got) != 2 {
		t.Fatalf("Nearest returned %d results", len(got))
	}
	if got[0] != 4 {
		t.Errorf("nearest = %d, want 4", got[0])
	}
	if got[1] != 5 {
		t.Errorf("second nearest = %d, want 5", got[1])
	}
}

func TestRTreeEmpty(t *testing.T) {
	tr := NewRTree()
	tr.Search(NewRect(0, 0, 1, 1), func(_ Rect, _ int64) bool {
		t.Fatal("empty tree returned a result")
		return false
	})
	if got := tr.Nearest(Point{0, 0}, 3); got != nil {
		t.Errorf("Nearest on empty tree = %v", got)
	}
	tr.BulkLoad(nil, nil)
	if tr.Len() != 0 {
		t.Errorf("bulk load empty: Len = %d", tr.Len())
	}
}

func TestRTreeQuickProperty(t *testing.T) {
	// Property: every inserted rectangle is findable via a window equal to
	// itself.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewRTree()
		var rects []Rect
		for i := 0; i < 100; i++ {
			x, y := rng.Float64()*100, rng.Float64()*100
			r := NewRect(x, y, x+rng.Float64(), y+rng.Float64())
			tr.Insert(r, int64(i))
			rects = append(rects, r)
		}
		for i, r := range rects {
			found := false
			tr.Search(r, func(_ Rect, id int64) bool {
				if id == int64(i) {
					found = true
					return false
				}
				return true
			})
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestMultiPolygon(t *testing.T) {
	mp := MultiPolygon{Polygons: []Polygon{
		{Shell: Ring{{0, 0}, {1, 0}, {1, 1}, {0, 1}}},
		{Shell: Ring{{5, 5}, {7, 5}, {7, 7}, {5, 7}}},
	}}
	if got := mp.Area(); got != 5 {
		t.Errorf("multipolygon area = %v, want 5", got)
	}
	if got := mp.NumVertices(); got != 8 {
		t.Errorf("NumVertices = %d, want 8", got)
	}
	b := mp.Bounds()
	if b != NewRect(0, 0, 7, 7) {
		t.Errorf("Bounds = %v", b)
	}
	if !Intersects(mp, Point{6, 6}) {
		t.Error("point in second member should intersect")
	}
	if Intersects(mp, Point{3, 3}) {
		t.Error("point between members should not intersect")
	}
	if !Contains(mp, Point{0.5, 0.5}) {
		t.Error("Contains should find point in first member")
	}
}

func TestLineString(t *testing.T) {
	l := LineString{Points: []Point{{0, 0}, {3, 4}, {3, 8}}}
	if got := l.Length(); got != 9 {
		t.Errorf("Length = %v, want 9", got)
	}
	if !Intersects(l, NewRect(2, 2, 4, 5)) {
		t.Error("line should intersect rect it passes through")
	}
	poly := Polygon{Shell: Ring{{2, 2}, {10, 2}, {10, 10}, {2, 10}}}
	if !Intersects(l, poly) {
		t.Error("line should intersect polygon")
	}
	far := LineString{Points: []Point{{100, 100}, {101, 101}}}
	if Intersects(l, far) {
		t.Error("distant lines should not intersect")
	}
}
