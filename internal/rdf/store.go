package rdf

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// EncTriple is a dictionary-encoded triple.
type EncTriple struct {
	S, P, O ID
}

// Store is an in-memory triple store with dictionary encoding and three
// sorted index orderings (SPO, POS, OSP) so every triple-pattern shape has
// a matching range-scan access path.
//
// Writes (Add/AddTriple) only append to a pending run, so loading never
// pays for index maintenance. The first read after a write flushes it
// under the write lock: the run is sorted and merged into each index
// (flushLocked), which costs a sort of the batch plus one linear pass per
// index, not a re-sort of the store; a store with nothing indexed yet
// (boot, snapshot install) sorts the run once and adopts it. All methods
// are safe for concurrent use.
type Store struct {
	dict *Dict

	mu      sync.RWMutex
	spo     []EncTriple
	pos     []EncTriple
	osp     []EncTriple
	pending []EncTriple
	// seen is the write-path dedup set. nil means "not built yet": a
	// snapshot install defers it so cold restarts reach serving without
	// paying one hash insert per triple; the first write rebuilds it
	// from spo+pending.
	seen    map[EncTriple]struct{}
	count   int // distinct triples (kept explicit so Len() never needs seen)
	version uint64
	journal Journal
	jerr    error

	// flushes and flushTime account for the index merges (MemoryStats).
	flushes   int64
	flushTime time.Duration

	// stats caches the query planner's cardinality statistics; it is
	// rebuilt lazily when version moves past the cached value (exec.go).
	stats atomic.Pointer[execStats]
}

// Journal is the durability hook a write-ahead log implements
// (internal/storage.Log does). Record is invoked with every novel triple
// while the store's write lock is held, so implementations must buffer
// cheaply and must never call back into the store; Commit seals the
// buffered triples into one durable batch and is invoked outside the
// lock.
type Journal interface {
	Record(t Triple) error
	Commit() error
}

// NewStore returns an empty store with its own dictionary.
func NewStore() *Store {
	return &Store{dict: NewDict(), seen: make(map[EncTriple]struct{})}
}

// Dict exposes the store's term dictionary.
func (s *Store) Dict() *Dict { return s.dict }

// Add inserts the triple (s, p, o) given as Terms. Duplicate triples are
// ignored.
func (s *Store) Add(sub, pred, obj Term) {
	s.AddEncoded(EncTriple{s.dict.Encode(sub), s.dict.Encode(pred), s.dict.Encode(obj)})
}

// AddTriple inserts a Triple value.
func (s *Store) AddTriple(t Triple) { s.Add(t.S, t.P, t.O) }

// AddEncoded inserts an already-encoded triple; the IDs must come from this
// store's dictionary. Once the journal has failed (JournalErr non-nil)
// the store is read-only: accepting the triple in memory while the log
// cannot record it would silently diverge from what a restart recovers,
// so the insert is dropped and the next CommitJournal reports the
// sticky error.
func (s *Store) AddEncoded(t EncTriple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jerr != nil {
		return
	}
	if s.seen == nil {
		s.rebuildSeenLocked()
	}
	if _, dup := s.seen[t]; dup {
		return
	}
	s.seen[t] = struct{}{}
	s.pending = append(s.pending, t)
	s.count++
	s.version++
	if s.journal != nil {
		dec := Triple{
			S: s.dict.MustDecode(t.S),
			P: s.dict.MustDecode(t.P),
			O: s.dict.MustDecode(t.O),
		}
		if err := s.journal.Record(dec); err != nil && s.jerr == nil {
			s.jerr = err
		}
	}
}

// SetJournal attaches (or, with nil, detaches) the durability journal.
// Every subsequent novel triple is recorded before Add returns; attach
// the journal only after recovery has finished replaying, so replayed
// triples are not re-journaled.
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// JournalErr returns the first error the attached journal reported, if
// any. A non-nil value means the in-memory store has triples the log may
// not have; the serving layer should surface it and stop accepting
// writes.
func (s *Store) JournalErr() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.jerr
}

// CommitJournal seals the triples recorded since the previous commit
// into one durable journal batch. It is a no-op without a journal.
// Commit failures stick in JournalErr just like Record failures — the
// in-memory store may now be ahead of the log either way.
func (s *Store) CommitJournal() error {
	s.mu.RLock()
	j, jerr := s.journal, s.jerr
	s.mu.RUnlock()
	if jerr != nil {
		return jerr
	}
	if j == nil {
		return nil
	}
	if err := j.Commit(); err != nil {
		s.mu.Lock()
		if s.jerr == nil {
			s.jerr = err
		}
		err = s.jerr
		s.mu.Unlock()
		return err
	}
	return nil
}

// AddBatch inserts the triples and seals them (together with any other
// concurrently recorded writes — group commit) into one journal batch.
func (s *Store) AddBatch(ts []Triple) error {
	for _, t := range ts {
		s.AddTriple(t)
	}
	return s.CommitJournal()
}

// Version returns a monotonic counter that advances on every mutation
// (each distinct triple inserted). Consumers such as query-result caches
// use it to detect that cached results are stale.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Len returns the number of distinct triples in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// rebuildSeenLocked materializes the write-path dedup set from the
// indexed and pending triples. Caller must hold the write lock.
func (s *Store) rebuildSeenLocked() {
	seen := make(map[EncTriple]struct{}, len(s.spo)+len(s.pending))
	for _, t := range s.spo {
		seen[t] = struct{}{}
	}
	for _, t := range s.pending {
		seen[t] = struct{}{}
	}
	s.seen = seen
}

// flushLocked merges pending triples into the three sorted indexes:
// the pending run is sorted under each ordering and merged backward, in
// place, into the already-sorted index, so a flush costs a sort of the
// run plus one linear pass rather than a re-sort of the whole store. With
// nothing indexed yet (boot, snapshot install) the run itself becomes the
// indexes. Caller must hold the write lock.
func (s *Store) flushLocked() {
	if len(s.pending) == 0 {
		return
	}
	start := time.Now()
	if len(s.spo) == 0 {
		// The store owns pending (see installPreparedLocked), so it
		// becomes one index as is; only the other two are copies.
		s.spo, s.pending = s.pending, nil
		s.pos = slices.Clone(s.spo)
		s.osp = slices.Clone(s.spo)
		// Compact duplicates (possible only when a snapshot was installed
		// without its dedup set and the file contained repeats).
		s.spo = slices.Compact(sortBy(s.spo, lessSPO))
		s.pos = slices.Compact(sortBy(s.pos, lessPOS))
		s.osp = slices.Compact(sortBy(s.osp, lessOSP))
	} else {
		s.spo = mergeSorted(s.spo, sortBy(s.pending, lessSPO), lessSPO)
		s.pos = mergeSorted(s.pos, sortBy(s.pending, lessPOS), lessPOS)
		s.osp = mergeSorted(s.osp, sortBy(s.pending, lessOSP), lessOSP)
		s.pending = s.pending[:0]
	}
	s.count = len(s.spo)
	s.flushes++
	s.flushTime += time.Since(start)
}

// sortBy sorts ts in place under less and returns it.
func sortBy(ts []EncTriple, less func(a, b EncTriple) bool) []EncTriple {
	slices.SortFunc(ts, func(a, b EncTriple) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return ts
}

// mergeSorted merges run into base, both sorted under less, and returns
// the extended base. base must be duplicate-free; triples of run equal to
// one in base or to their predecessor in run are dropped. The merge runs backward inside base's own array,
// which append grows geometrically, so a small run reallocates nothing
// and moves only the triples that sort after its first element.
func mergeSorted(base, run []EncTriple, less func(a, b EncTriple) bool) []EncTriple {
	i, j := len(base)-1, len(run)-1
	base = append(base, run...)
	k := len(base) - 1 // next slot to fill; base[k+1:] is merged output
	for j >= 0 {
		t := run[j]
		switch {
		case i >= 0 && less(t, base[i]):
			base[k] = base[i]
			i--
			k--
		case (i >= 0 && t == base[i]) || (k+1 < len(base) && t == base[k+1]):
			j--
		default:
			base[k] = t
			j--
			k--
		}
	}
	// base[:i+1] never moved; every dropped duplicate left one free slot
	// between it and the merged output.
	if k > i {
		base = base[:i+1+copy(base[i+1:], base[k+1:])]
	}
	return base
}

// ensureIndexed flushes pending writes if any, upgrading the lock.
func (s *Store) ensureIndexed() {
	s.mu.RLock()
	dirty := len(s.pending) > 0
	s.mu.RUnlock()
	if !dirty {
		return
	}
	s.mu.Lock()
	s.flushLocked()
	s.mu.Unlock()
}

func lessSPO(a, b EncTriple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}

func lessPOS(a, b EncTriple) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.O != b.O {
		return a.O < b.O
	}
	return a.S < b.S
}

func lessOSP(a, b EncTriple) bool {
	if a.O != b.O {
		return a.O < b.O
	}
	if a.S != b.S {
		return a.S < b.S
	}
	return a.P < b.P
}

// Match calls fn for every triple matching the pattern, where NoID acts as
// a wildcard in any position. Iteration stops early when fn returns false.
func (s *Store) Match(sub, pred, obj ID, fn func(EncTriple) bool) {
	s.ensureIndexed()
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.matchLocked(sub, pred, obj, fn)
}

// matchLocked is Match for callers that already hold the read lock with
// pending writes flushed (the plan executor holds it for a whole run).
func (s *Store) matchLocked(sub, pred, obj ID, fn func(EncTriple) bool) {
	// Choose the index whose sort order puts the bound components first.
	switch {
	case sub != NoID:
		s.scanSPO(sub, pred, obj, fn)
	case pred != NoID:
		s.scanPOS(pred, obj, fn)
	case obj != NoID:
		s.scanOSP(obj, fn)
	default:
		for _, t := range s.spo {
			if !fn(t) {
				return
			}
		}
	}
}

// scanSPO handles patterns with S bound (P and O optionally bound).
func (s *Store) scanSPO(sub, pred, obj ID, fn func(EncTriple) bool) {
	q := EncTriple{S: sub, P: pred, O: obj}
	lo := sort.Search(len(s.spo), func(i int) bool { return !lessSPO(s.spo[i], q) })
	for i := lo; i < len(s.spo); i++ {
		t := s.spo[i]
		if t.S != sub {
			return // past the S range
		}
		if pred != NoID {
			if t.P > pred {
				return // past the (S,P) range
			}
			if t.P != pred {
				continue
			}
			if obj != NoID && t.O > obj {
				return // past the exact (S,P,O) position
			}
		}
		if obj != NoID && t.O != obj {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// scanPOS handles patterns with P bound and S unbound (O optionally bound).
func (s *Store) scanPOS(pred, obj ID, fn func(EncTriple) bool) {
	q := EncTriple{P: pred, O: obj}
	lo := sort.Search(len(s.pos), func(i int) bool { return !lessPOS(s.pos[i], q) })
	for i := lo; i < len(s.pos); i++ {
		t := s.pos[i]
		if t.P != pred {
			return
		}
		if obj != NoID {
			if t.O > obj {
				return
			}
			if t.O != obj {
				continue
			}
		}
		if !fn(t) {
			return
		}
	}
}

// scanOSP handles patterns with only O bound.
func (s *Store) scanOSP(obj ID, fn func(EncTriple) bool) {
	q := EncTriple{O: obj}
	lo := sort.Search(len(s.osp), func(i int) bool { return !lessOSP(s.osp[i], q) })
	for i := lo; i < len(s.osp); i++ {
		t := s.osp[i]
		if t.O != obj {
			return
		}
		if !fn(t) {
			return
		}
	}
}

// MatchTerms is Match with Term arguments and decoded Triple results. A
// zero Term (Kind == IRI, Value == "") acts as a wildcard.
func (s *Store) MatchTerms(sub, pred, obj Term, fn func(Triple) bool) {
	enc := func(t Term) ID {
		if t == (Term{}) {
			return NoID
		}
		id, ok := s.dict.Lookup(t)
		if !ok {
			return ID(-1) // term not in dictionary: no matches possible
		}
		return id
	}
	es, ep, eo := enc(sub), enc(pred), enc(obj)
	if es < 0 || ep < 0 || eo < 0 {
		return
	}
	s.Match(es, ep, eo, func(t EncTriple) bool {
		return fn(Triple{
			S: s.dict.MustDecode(t.S),
			P: s.dict.MustDecode(t.P),
			O: s.dict.MustDecode(t.O),
		})
	})
}

// Count returns the number of triples matching the pattern.
func (s *Store) Count(sub, pred, obj ID) int {
	n := 0
	s.Match(sub, pred, obj, func(EncTriple) bool { n++; return true })
	return n
}

// SnapshotData returns a consistent point-in-time copy of the store for
// snapshot writers: the dictionary in ID order, every triple (encoded
// against that dictionary), and the mutation version at capture. The
// dictionary is captured after the triples, so it always covers every ID
// the triples reference even under concurrent writers.
func (s *Store) SnapshotData() (terms []Term, triples []EncTriple, version uint64) {
	s.mu.RLock()
	triples = make([]EncTriple, 0, len(s.spo)+len(s.pending))
	triples = append(triples, s.spo...)
	triples = append(triples, s.pending...)
	version = s.version
	s.mu.RUnlock()
	return s.dict.Terms(), triples, version
}

// InstallSnapshot loads a snapshot (dictionary segment + encoded triple
// segment, as produced by SnapshotData) into an empty store, bypassing
// term re-encoding; this is the fast path behind cold restarts. The
// store takes ownership of both slices — callers must not reuse them.
// The installed triples are not journaled — attach the journal
// afterwards.
func (s *Store) InstallSnapshot(terms []Term, triples []EncTriple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count != 0 || s.dict.Len() != 0 {
		return fmt.Errorf("rdf: InstallSnapshot into non-empty store (%d triples, %d terms)",
			s.count, s.dict.Len())
	}
	// Insert-then-check-len detects duplicate terms with one hash per
	// term instead of a lookup plus an insert.
	byTerm := make(map[Term]ID, len(terms))
	for i, t := range terms {
		byTerm[t] = ID(i + 1)
		if len(byTerm) != i+1 {
			return fmt.Errorf("rdf: duplicate term %s in dictionary segment", t)
		}
	}
	return s.installPreparedLocked(terms, byTerm, triples)
}

// InstallSnapshotPrepared is InstallSnapshot for callers that built the
// term→ID index themselves (internal/storage constructs it concurrently
// with segment decoding). byTerm must map terms[i] to ID i+1.
func (s *Store) InstallSnapshotPrepared(terms []Term, byTerm map[Term]ID, triples []EncTriple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count != 0 || s.dict.Len() != 0 {
		return fmt.Errorf("rdf: InstallSnapshot into non-empty store (%d triples, %d terms)",
			s.count, s.dict.Len())
	}
	if len(byTerm) != len(terms) {
		return fmt.Errorf("rdf: prepared index has %d entries for %d terms", len(byTerm), len(terms))
	}
	return s.installPreparedLocked(terms, byTerm, triples)
}

func (s *Store) installPreparedLocked(terms []Term, byTerm map[Term]ID, triples []EncTriple) error {
	max := ID(len(terms))
	for _, t := range triples {
		if t.S <= 0 || t.S > max || t.P <= 0 || t.P > max || t.O <= 0 || t.O > max {
			return fmt.Errorf("rdf: snapshot triple %v references ID outside dictionary (1..%d)", t, max)
		}
	}
	if err := s.dict.adopt(terms, byTerm); err != nil {
		return err
	}
	// The write-path dedup set stays nil (lazy): snapshots written by
	// SnapshotData are duplicate-free, and the first live write rebuilds
	// it. flushLocked compacts any duplicates a hand-crafted file smuggled
	// in, so reads stay correct regardless. The store takes ownership of
	// the triples slice — snapshot loaders hand it off and never touch
	// it again, so skipping the copy is safe and measurable at restart.
	s.seen = nil
	s.pending = triples
	s.count = len(triples)
	s.version = uint64(len(triples))
	return nil
}

// Triples returns all triples in unspecified order (decoded). Intended for
// tests and small exports.
func (s *Store) Triples() []Triple {
	s.ensureIndexed()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Triple, 0, len(s.spo))
	for _, t := range s.spo {
		out = append(out, Triple{
			S: s.dict.MustDecode(t.S),
			P: s.dict.MustDecode(t.P),
			O: s.dict.MustDecode(t.O),
		})
	}
	return out
}

// encTripleBytes is the payload size of one EncTriple (three int64
// dictionary IDs), used by MemoryStats to convert index lengths into
// bytes.
const encTripleBytes = 3 * 8

// MemoryStats walks the store's memory-dominating structures — the term
// dictionary and the three sorted indexes plus the unsorted pending run
// — into a point-in-time accounting. It holds the read lock for the
// duration (the dictionary walk is O(terms)), so scrape paths should
// cache the result rather than calling it once per gauge.
func (s *Store) MemoryStats() telemetry.StoreMemory {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := telemetry.StoreMemory{
		DictTerms: int64(s.dict.Len()),
		DictBytes: s.dict.TextBytes(),
		IndexTriples: map[string]int64{
			"spo":     int64(len(s.spo)),
			"pos":     int64(len(s.pos)),
			"osp":     int64(len(s.osp)),
			"pending": int64(len(s.pending)),
		},
		// seen is nil (0) while the lazily-built dedup set is unbuilt
		// after a snapshot install.
		DedupEntries:      int64(len(s.seen)),
		IndexFlushes:      s.flushes,
		IndexFlushSeconds: s.flushTime.Seconds(),
	}
	m.IndexBytes = m.TriplesIndexed() * encTripleBytes
	return m
}
