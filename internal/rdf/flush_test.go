package rdf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// flushDomain is the ID range the flush property tests draw from: small
// enough that random triples repeat both inside a batch and against what
// is already indexed.
const flushDomain = 12

// flushTestStore returns a store whose dictionary holds flushDomain
// terms (IDs 1..flushDomain). With snapshot set it starts from an
// installed snapshot that repeats triples, so its dedup set is nil and
// only the flush can compact it.
func flushTestStore(t *testing.T, rng *rand.Rand, snapshot bool, model map[EncTriple]struct{}) *Store {
	t.Helper()
	st := NewStore()
	terms := make([]Term, flushDomain)
	for i := range terms {
		terms[i] = NewIRI(fmt.Sprintf("http://example.org/t%d", i))
	}
	if !snapshot {
		for _, term := range terms {
			st.Dict().Encode(term)
		}
		return st
	}
	var triples []EncTriple
	for i := 0; i < 60; i++ {
		tr := randomEncTriple(rng)
		model[tr] = struct{}{}
		triples = append(triples, tr, tr)
	}
	rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })
	if err := st.InstallSnapshot(terms, triples); err != nil {
		t.Fatal(err)
	}
	if st.seen != nil {
		t.Fatal("snapshot install built the dedup set")
	}
	return st
}

func randomEncTriple(rng *rand.Rand) EncTriple {
	return EncTriple{ID(1 + rng.Intn(flushDomain)), ID(1 + rng.Intn(3)), ID(1 + rng.Intn(flushDomain))}
}

// checkFlushed reads the store, which flushes it, and compares the three
// indexes, Len, Version, Match and Count with the model.
func checkFlushed(t *testing.T, st *Store, model map[EncTriple]struct{}, rng *rand.Rand) {
	t.Helper()
	version := st.Version()
	if got := st.Count(NoID, NoID, NoID); got != len(model) {
		t.Fatalf("Count(*) = %d, want %d", got, len(model))
	}
	if got := st.Version(); got != version {
		t.Fatalf("flush moved Version from %d to %d", version, got)
	}
	all := make([]EncTriple, 0, len(model))
	for tr := range model {
		all = append(all, tr)
	}
	st.mu.RLock()
	for _, idx := range []struct {
		name string
		got  []EncTriple
		less func(a, b EncTriple) bool
	}{{"spo", st.spo, lessSPO}, {"pos", st.pos, lessPOS}, {"osp", st.osp, lessOSP}} {
		if want := sortBy(slices.Clone(all), idx.less); !slices.Equal(idx.got, want) {
			t.Fatalf("%s index differs from sort+compact of the triple set:\n got %v\nwant %v", idx.name, idx.got, want)
		}
	}
	pending, indexed := len(st.pending), len(st.spo)
	st.mu.RUnlock()
	if pending != 0 {
		t.Fatalf("%d triples still pending after a read", pending)
	}
	if st.Len() != indexed {
		t.Fatalf("Len = %d, len(spo) = %d", st.Len(), indexed)
	}
	for trial := 0; trial < 8; trial++ {
		q := randomEncTriple(rng)
		if trial&1 != 0 {
			q.S = NoID
		}
		if trial&2 != 0 {
			q.P = NoID
		}
		if trial&4 != 0 {
			q.O = NoID
		}
		var want []EncTriple
		for _, tr := range all {
			if (q.S == NoID || tr.S == q.S) && (q.P == NoID || tr.P == q.P) && (q.O == NoID || tr.O == q.O) {
				want = append(want, tr)
			}
		}
		var got []EncTriple
		st.Match(q.S, q.P, q.O, func(tr EncTriple) bool { got = append(got, tr); return true })
		if !slices.Equal(sortBy(got, lessSPO), sortBy(want, lessSPO)) {
			t.Fatalf("Match(%v) = %v, want %v", q, got, want)
		}
		if n := st.Count(q.S, q.P, q.O); n != len(want) {
			t.Fatalf("Count(%v) = %d, want %d", q, n, len(want))
		}
	}
}

// TestFlushMergesLikeSortCompact interleaves random batches of adds with
// reads. Batches repeat indexed triples and their own, pile up before a
// read or not, and every other store starts from a snapshot with repeats.
func TestFlushMergesLikeSortCompact(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model := map[EncTriple]struct{}{}
		st := flushTestStore(t, rng, seed%2 == 1, model)
		for step := 0; step < 25; step++ {
			for n := rng.Intn(20); n > 0; n-- {
				tr := randomEncTriple(rng)
				st.AddEncoded(tr)
				model[tr] = struct{}{}
				if rng.Intn(4) == 0 {
					st.AddEncoded(tr)
				}
			}
			if rng.Intn(3) != 0 {
				checkFlushed(t, st, model, rng)
			}
		}
		checkFlushed(t, st, model, rng)
	}
}

// TestFlushUnderConcurrentReaders has readers flushing while a writer
// adds, for the race detector, then checks the final state as above.
func TestFlushUnderConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	model := map[EncTriple]struct{}{}
	st := flushTestStore(t, rng, true, model)
	batch := make([]EncTriple, 400)
	for i := range batch {
		batch[i] = randomEncTriple(rng)
		model[batch[i]] = struct{}{}
	}
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(p ID) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				st.Count(NoID, p, NoID)
				st.queryStats()
			}
		}(ID(1 + r))
	}
	for _, tr := range batch {
		st.AddEncoded(tr)
	}
	wg.Wait()
	checkFlushed(t, st, model, rng)
}

// TestMergeSortedDropsDuplicates pins the duplicate handling the store's
// dedup set normally makes unreachable: triples of the run equal to an
// indexed one, or to each other, are merged once.
func TestMergeSortedDropsDuplicates(t *testing.T) {
	tr := func(s, p, o ID) EncTriple { return EncTriple{s, p, o} }
	base := []EncTriple{tr(1, 1, 1), tr(2, 1, 1), tr(4, 1, 1)}
	run := []EncTriple{tr(0, 1, 1), tr(2, 1, 1), tr(3, 1, 1), tr(3, 1, 1), tr(4, 1, 1), tr(5, 1, 1), tr(5, 1, 1)}
	want := []EncTriple{tr(0, 1, 1), tr(1, 1, 1), tr(2, 1, 1), tr(3, 1, 1), tr(4, 1, 1), tr(5, 1, 1)}
	if got := mergeSorted(base, run, lessSPO); !slices.Equal(got, want) {
		t.Fatalf("mergeSorted = %v, want %v", got, want)
	}
}
