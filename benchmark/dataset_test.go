package main

import (
	"bytes"
	"testing"
	"time"
)

func ntriples(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := generateDataset(seed, scaleSmoke).writeNTriples(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	if !bytes.Equal(ntriples(t, 7), ntriples(t, 7)) {
		t.Error("the same seed gave two different N-Triples files")
	}
	if bytes.Equal(ntriples(t, 7), ntriples(t, 8)) {
		t.Error("different seeds gave the same N-Triples file")
	}
	for _, w := range workloads {
		a := newGenerator(w, 7).openSchedule(time.Second).sha256()
		b := newGenerator(w, 7).openSchedule(time.Second).sha256()
		c := newGenerator(w, 8).openSchedule(time.Second).sha256()
		if a != b {
			t.Errorf("%s: the same seed gave two different schedules", w.name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same schedule", w.name)
		}
	}
	a := generateBatches(7, streamBurstLoads, 100, 2, 10)
	b := generateBatches(7, streamBurstLoads, 100, 2, 10)
	if !bytes.Equal(a[1].body, b[1].body) {
		t.Error("the same seed gave two different ingest batches")
	}
}

func TestDatasetShape(t *testing.T) {
	d := generateDataset(1, scaleFull)
	if len(d.points) != 100000 || len(d.parcels) != 3000 || len(d.zones) != 3000 || d.triples != 624000 {
		t.Errorf("cop-100k has %d points, %d parcels, %d zones, %d triples", len(d.points), len(d.parcels), len(d.zones), d.triples)
	}
	for _, p := range d.parcels {
		if n := len(p.ring); n < 8 || n > 16 {
			t.Fatalf("parcel %d has %d vertices, want 8 to 16", p.id, n)
		}
	}
}

// Only window-hot may repeat a request: everything else must miss both
// the result cache and the plan cache, which are keyed on the query text.
func TestOnlyWindowHotRepeatsQueries(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w, 3)
		seen := map[string]bool{}
		for i := 0; i < 5000; i++ {
			seen[g.op(streamClosed, i).text] = true
		}
		if w.wantCache == "HIT" {
			if len(seen) > hotTiles {
				t.Errorf("%s: %d distinct queries, want at most %d", w.name, len(seen), hotTiles)
			}
		} else if len(seen) != 5000 {
			t.Errorf("%s: only %d distinct queries in 5000", w.name, len(seen))
		}
	}
}

func TestRingsIntersect(t *testing.T) {
	square := func(x, y, s float64) []xy { return []xy{{x, y}, {x + s, y}, {x + s, y + s}, {x, y + s}} }
	for _, tc := range []struct {
		name string
		a, b []xy
		want bool
	}{
		{"crossing", square(0, 0, 10), square(5, 5, 10), true},
		{"contained", square(0, 0, 10), square(2, 2, 3), true},
		{"containing", square(2, 2, 3), square(0, 0, 10), true},
		{"touching corner", square(0, 0, 10), square(10, 10, 5), true},
		{"disjoint", square(0, 0, 10), square(11, 0, 5), false},
		{"disjoint, boxes overlap", []xy{{0, 0}, {10, 0}, {0, 10}}, []xy{{10, 10}, {10, 6}, {6, 10}}, false},
	} {
		if got := ringsIntersect(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}
