package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// linearSeek is the one-entry-at-a-time cursor advance the merge steps
// used before seek; it is the reference seek must agree with.
func linearSeek(seg []EncTriple, c int, k ID, onO bool) int {
	for c < len(seg) && mergeKey(seg[c], onO) < k {
		c++
	}
	return c
}

// randomMergeSegment returns a segment sorted ascending by its merge key
// with long runs of equal keys, gaps between keys, and a noise value in
// the other position. Keys start at 3 so there is room below the first.
func randomMergeSegment(rng *rand.Rand, onO bool) []EncTriple {
	seg := make([]EncTriple, rng.Intn(400))
	key := ID(3 + rng.Intn(4))
	for i := range seg {
		switch r := rng.Intn(10); {
		case r < 5: // repeat: long runs of equal keys
		case r < 8:
			key++
		default:
			key += ID(2 + rng.Intn(30))
		}
		noise := ID(1 + rng.Intn(1000))
		if onO {
			seg[i] = EncTriple{S: noise, O: key}
		} else {
			seg[i] = EncTriple{S: key, O: noise}
		}
	}
	return seg
}

func TestSeekMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		onO := trial%2 == 1
		seg := randomMergeSegment(rng, onO)
		last := ID(2)
		if len(seg) > 0 {
			last = mergeKey(seg[len(seg)-1], onO)
		}

		// An ascending key stream with repeats, from below the first entry
		// to past the last, advancing both cursors the way a merge step
		// does.
		c, ref := 0, 0
		for k := ID(0); k <= last+3; {
			got, want := seek(seg, c, k, onO), linearSeek(seg, ref, k, onO)
			if got != want {
				t.Fatalf("trial %d: seek(c=%d, k=%d) = %d, linear scan = %d (segment %v)", trial, c, k, got, want, seg)
			}
			c, ref = got, want
			switch r := rng.Intn(10); {
			case r < 3: // repeated stream key
			case r < 7:
				k++
			default:
				k += ID(1 + rng.Intn(60))
			}
		}

		// Arbitrary (cursor, key) pairs: the first position at or after c
		// whose key is >= k, whatever c is.
		for i := 0; i < 20; i++ {
			c := rng.Intn(len(seg) + 1)
			k := ID(rng.Intn(int(last) + 5))
			if got, want := seek(seg, c, k, onO), linearSeek(seg, c, k, onO); got != want {
				t.Fatalf("trial %d: seek(c=%d, k=%d) = %d, linear scan = %d", trial, c, k, got, want)
			}
		}
	}
}

// mergeSegLen is the size of each merge segment in the executor test:
// large enough that walking it per query is what seek must avoid.
const mergeSegLen = 100_000

// mergeFixture holds a store with one ≥ mergeSegLen-entry segment per
// merge kind, and the IDs seed streams draw from.
type mergeFixture struct {
	st *Store
	// pS, oS: POS(pS,oS) is the mergeS segment. sC, pC: SPO(sC,pC) is
	// the mergeOConstS segment. pN: POS(pN) is the mergeONewS segment.
	pS, oS, sC, pC, pN Term
	members            []ID // keys present in every segment, ascending
	gaps               []ID // keys between members, in no segment
	below, past        ID   // a key below the first member and one past the last
}

var (
	mergeFixtureOnce sync.Once
	mergeFixtureVal  *mergeFixture
)

// getMergeFixture builds the fixture once per test binary. Member IDs
// interleave with gap IDs, so seeds can fall between entries.
func getMergeFixture() *mergeFixture {
	mergeFixtureOnce.Do(func() {
		st := NewStore()
		d := st.Dict()
		iri := func(s string) Term { return NewIRI("http://merge.test/" + s) }
		f := &mergeFixture{st: st,
			pS: iri("pS"), oS: iri("oS"), sC: iri("sC"), pC: iri("pC"), pN: iri("pN")}
		for _, term := range []Term{f.pS, f.oS, f.sC, f.pC, f.pN} {
			d.Encode(term)
		}
		f.below = d.Encode(iri("below"))
		for i := 0; len(f.members) < mergeSegLen; i++ {
			if i%4 == 0 {
				f.gaps = append(f.gaps, d.Encode(iri(fmt.Sprintf("gap%d", i))))
			}
			f.members = append(f.members, d.Encode(iri(fmt.Sprintf("m%d", i))))
		}
		f.past = d.Encode(iri("past"))

		pS, oS, sC, pC, pN := f.ids()
		for j, m := range f.members {
			st.AddEncoded(EncTriple{S: m, P: pS, O: oS})
			st.AddEncoded(EncTriple{S: sC, P: pC, O: m})
			// mergeONewS groups: one to three subjects per object.
			for g := 0; g <= j%3; g++ {
				st.AddEncoded(EncTriple{S: f.members[(j*7+g*13)%len(f.members)], P: pN, O: m})
			}
		}
		mergeFixtureVal = f
	})
	return mergeFixtureVal
}

// ids returns the dictionary IDs of the segment-defining constants.
func (f *mergeFixture) ids() (pS, oS, sC, pC, pN ID) {
	id := func(t Term) ID { v, _ := f.st.Dict().Lookup(t); return v }
	return id(f.pS), id(f.oS), id(f.sC), id(f.pC), id(f.pN)
}

// sparseSeeds returns a sorted seed stream that touches a few hundred of
// the segment's keys: members, repeats, gap keys between entries, keys
// below the first entry and, when tail is set, keys past the last.
func (f *mergeFixture) sparseSeeds(rng *rand.Rand, tail bool) []ID {
	keys := []ID{f.below, f.members[0], f.members[0]}
	for i := 0; i < 300; i++ {
		keys = append(keys, f.members[rng.Intn(len(f.members))])
	}
	for i := 0; i < 60; i++ {
		keys = append(keys, f.gaps[rng.Intn(len(f.gaps))])
	}
	for i := 0; i < 20; i++ { // repeats
		keys = append(keys, keys[rng.Intn(len(keys))])
	}
	keys = append(keys, f.members[len(f.members)-1])
	if tail {
		keys = append(keys, f.past, f.past, f.past+1000)
	}
	slices.Sort(keys)
	return keys
}

// orderedSink collects a parallel run's rows per morsel and concatenates
// them in morsel order, reproducing the sequential stream.
type orderedSink struct{ morsels [][]Row }

func (s *orderedSink) Begin(morsels, workers int) { s.morsels = make([][]Row, morsels) }
func (s *orderedSink) StartMorsel(worker, m int) func(Row) bool {
	return func(r Row) bool {
		s.morsels[m] = append(s.morsels[m], slices.Clone(r))
		return true
	}
}
func (s *orderedSink) FinishMorsel(worker, m int) {}
func (s *orderedSink) FinishWorker(worker int)    {}
func (s *orderedSink) rows() []Row {
	var out []Row
	for _, m := range s.morsels {
		out = append(out, m...)
	}
	return out
}

// TestMergeStepsSparseSeeds runs each merge kind over a sparse sorted
// seed stream against a 100k-entry segment, sequentially and on the
// morsel executor at degrees 1 and 2, and checks rows and EXPLAIN
// ANALYZE counters against a model computed from Count/Match alone.
func TestMergeStepsSparseSeeds(t *testing.T) {
	f := getMergeFixture()
	st := f.st
	pS, oS, sC, pC, pN := f.ids()
	lastKey := f.members[len(f.members)-1]

	cases := []struct {
		name    string
		kind    mergeKind
		pattern TriplePattern
		// match returns the ?new bindings a key produces (one NoID entry
		// per match for the semi-joins, which bind nothing).
		match func(k ID) []ID
	}{
		{"mergeS", mergeS, TriplePattern{S: V("x"), P: T(f.pS), O: T(f.oS)}, func(k ID) []ID {
			return make([]ID, st.Count(k, pS, oS))
		}},
		{"mergeOConstS", mergeOConstS, TriplePattern{S: T(f.sC), P: T(f.pC), O: V("x")}, func(k ID) []ID {
			return make([]ID, st.Count(sC, pC, k))
		}},
		{"mergeONewS", mergeONewS, TriplePattern{S: V("new"), P: T(f.pN), O: V("x")}, func(k ID) []ID {
			var subs []ID
			st.Match(NoID, pN, k, func(t EncTriple) bool { subs = append(subs, t.S); return true })
			return subs
		}},
	}
	slots := map[string]int{"x": 0, "new": 1}
	const seedMorsel = 64

	for _, tc := range cases {
		for _, tail := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tail=%v", tc.name, tail), func(t *testing.T) {
				plan := st.PlanBGP([]TriplePattern{tc.pattern}, slots, 2, BGPOptions{SeedSlots: []int{0}, SortedSlot: 0})
				if len(plan.steps) != 1 || plan.steps[0].merge != tc.kind {
					t.Fatalf("plan does not use %s: %v", tc.name, plan.Explain())
				}
				st.ensureIndexed()
				st.mu.RLock()
				n := len(plan.resolveSegsLocked(st)[0])
				st.mu.RUnlock()
				if n < mergeSegLen {
					t.Fatalf("segment has %d entries, want >= %d", n, mergeSegLen)
				}
				keys := f.sparseSeeds(rand.New(rand.NewSource(int64(len(tc.name)))), tail)
				seeds := make([]Row, len(keys))
				for i, k := range keys {
					seeds[i] = Row{k, NoID}
				}

				// model runs the stream in chunks of chunk seeds: a key past
				// the segment's last entry ends its chunk (the sequential run
				// is one chunk), as the merge step's early exit does.
				model := func(chunk int) (rows []Row, rowsIn, matches int64) {
					for lo := 0; lo < len(keys); lo += chunk {
						for _, k := range keys[lo:min(lo+chunk, len(keys))] {
							rowsIn++
							if k > lastKey {
								break
							}
							for _, n := range tc.match(k) {
								matches++
								rows = append(rows, Row{k, n})
							}
						}
					}
					return rows, rowsIn, matches
				}
				check := func(label string, got []Row, stats *RunStats, chunk int) {
					t.Helper()
					want, rowsIn, matches := model(chunk)
					if len(want) == 0 {
						t.Fatal("model produced no rows; the seeds miss the segment")
					}
					if !slices.EqualFunc(got, want, func(a, b Row) bool { return slices.Equal(a, b) }) {
						t.Fatalf("%s: %d rows, want %d (first got %v, want %v)", label, len(got), len(want), got[:min(3, len(got))], want[:3])
					}
					if s := stats.Steps[0]; s.RowsIn != rowsIn || s.Matches != matches {
						t.Fatalf("%s: RowsIn %d Matches %d, want %d %d", label, s.RowsIn, s.Matches, rowsIn, matches)
					}
				}

				var got []Row
				stats := plan.NewRunStats()
				plan.RunProfiled(st, seeds, stats, func(r Row) bool {
					got = append(got, slices.Clone(r))
					return true
				})
				check("sequential", got, stats, len(keys))

				for _, degree := range []int{1, 2} {
					sink := &orderedSink{}
					pstats := &ParallelRunStats{}
					plan.RunParallel(st, seeds, ParallelOpts{Workers: degree, SeedMorsel: seedMorsel, Stats: pstats}, sink)
					check(fmt.Sprintf("degree %d", degree), sink.rows(), &pstats.RunStats, seedMorsel)
				}
			})
		}
	}
}
