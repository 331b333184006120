// Package geostore implements the geospatial RDF store of Challenge C3:
// Strabon re-engineered for scale. It layers geometry awareness over
// internal/rdf: WKT literals are parsed once at load time, indexed in an
// R-tree, and stSPARQL spatial filters are answered by filter-and-refine
// over the index instead of per-row WKT parsing.
//
// Two execution modes reproduce the E1/E2 experiment axes:
//
//   - ModeNaive mirrors the 2012-era Strabon evaluation strategy the paper
//     cites as insufficient: full scan of candidate bindings with exact
//     geometry tests (including WKT parsing) per row. It is an in-process
//     baseline and test oracle; eeserve serves ModeIndexed only.
//   - ModeIndexed is the re-engineered single-node store: pre-parsed
//     geometries, R-tree pruning, exact refinement only on survivors.
//
// E1 also hash-partitions features across k indexed stores and
// concatenates their window selections (see PartitionedStore).
package geostore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/telemetry"
)

// Mode selects the execution strategy of a single-node store.
type Mode int

const (
	// ModeIndexed uses the R-tree filter-and-refine pipeline.
	ModeIndexed Mode = iota
	// ModeNaive evaluates spatial filters row-at-a-time with WKT parsing,
	// the "Strabon 2012" baseline of experiments E1/E2.
	ModeNaive
)

func (m Mode) String() string {
	switch m {
	case ModeIndexed:
		return "indexed"
	case ModeNaive:
		return "naive"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Feature is a geospatial entity: the unit of loading for the experiment
// workloads and the applications (fields, ice floes, icebergs, products).
type Feature struct {
	// IRI identifies the feature.
	IRI string
	// Class is the rdf:type IRI ("" for untyped features).
	Class string
	// Geometry is the feature geometry.
	Geometry geom.Geometry
	// Props holds additional predicate IRI -> object term attributes.
	Props map[string]rdf.Term
}

// Store is a single-node geospatial RDF store.
type Store struct {
	rdfStore *rdf.Store
	mode     Mode

	// plans caches compiled slot-based query plans keyed on canonical
	// query text, invalidated by store version.
	plans *planCache

	// joinProbes counts R-tree probes issued by index spatial joins
	// (exposed as sparql_spatial_join_probes_total).
	joinProbes atomic.Uint64

	// parallel is the morsel-driven execution degree (< 2 = sequential);
	// gate bounds executor goroutines server-wide; execMorsels counts
	// dispatched morsels (exposed as sparql_exec_morsels_total). Set via
	// SetParallel before serving.
	parallel    int
	gate        rdf.WorkerGate
	execMorsels atomic.Uint64

	// logger, when non-nil, records execution-path events (query
	// cancellation) with the request ID carried by the query context, so
	// store-level lines correlate with the endpoint's access log.
	logger *slog.Logger

	mu sync.RWMutex
	// geoms maps the dictionary ID of a WKT literal to its parsed
	// geometry; parsed once at insert.
	geoms map[rdf.ID]geom.Geometry
	// rtree indexes geometry bounds by WKT literal dictionary ID.
	rtree *geom.RTree
	// unindexed lists the geometries registered since the R-tree was last
	// refreshed; bulkLen is the tree's size at its last bulk load, so
	// len(geoms)-bulkLen geometries arrived by insertion (see Build).
	unindexed []rdf.ID
	bulkLen   int
	// bulkLoads and insertBuilds count the refreshes of either kind.
	bulkLoads, insertBuilds int64
}

// rebulkFraction bounds how far incremental inserts may grow the R-tree
// before it is repacked: once the geometries inserted since the last bulk
// load exceed 1/rebulkFraction of those it packed, the next refresh bulk
// loads again.
const rebulkFraction = 4

// New returns an empty store in the given mode.
func New(mode Mode) *Store {
	return &Store{
		rdfStore: rdf.NewStore(),
		mode:     mode,
		plans:    newPlanCache(),
		geoms:    make(map[rdf.ID]geom.Geometry),
		rtree:    geom.NewRTree(),
	}
}

// Mode returns the store's execution mode.
func (s *Store) Mode() Mode { return s.mode }

// SetParallel enables morsel-driven parallel query execution at the
// given degree (< 2 disables it). gate, when non-nil, bounds executor
// goroutines across concurrent queries (see rdf.WorkerGate); a query's
// first worker never needs a slot, so execution degrades gracefully
// toward sequential under load. Call before serving: the degree is a
// store-wide execution property, so cached plans (keyed on query text
// and store version) remain valid.
func (s *Store) SetParallel(degree int, gate rdf.WorkerGate) {
	if degree < 1 {
		degree = 1
	}
	s.parallel = degree
	s.gate = gate
}

// ExecStats returns the number of parallel executor morsels dispatched
// (exposed by /metrics as sparql_exec_morsels_total).
func (s *Store) ExecStats() (morsels uint64) { return s.execMorsels.Load() }

// SetLogger attaches a structured logger for execution-path events
// (currently query cancellations, tagged with the context's request ID).
// nil (the default) disables store-level logging.
func (s *Store) SetLogger(l *slog.Logger) { s.logger = l }

// RDF exposes the underlying triple store.
func (s *Store) RDF() *rdf.Store { return s.rdfStore }

// Len returns the number of triples.
func (s *Store) Len() int { return s.rdfStore.Len() }

// Version returns the store's monotonic mutation counter (see
// rdf.Store.Version); query-result caches key on it for invalidation.
func (s *Store) Version() uint64 { return s.rdfStore.Version() }

// JournalErr surfaces the first durability-journal failure, if any (see
// rdf.Store.JournalErr). Serving layers report it as a server fault.
func (s *Store) JournalErr() error { return s.rdfStore.JournalErr() }

// NumGeometries returns the number of distinct indexed geometries.
func (s *Store) NumGeometries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.geoms)
}

// Add inserts a triple, registering the object if it is a geometry
// literal. Invalid WKT in a geometry literal is an error.
func (s *Store) Add(sub, pred, obj rdf.Term) error {
	if obj.IsGeometry() {
		id := s.rdfStore.Dict().Encode(obj)
		s.mu.Lock()
		if _, ok := s.geoms[id]; !ok {
			g, err := geom.ParseWKT(obj.Value)
			if err != nil {
				s.mu.Unlock()
				return fmt.Errorf("geostore: %w", err)
			}
			s.geoms[id] = g
			s.unindexed = append(s.unindexed, id)
		}
		s.mu.Unlock()
	}
	s.rdfStore.Add(sub, pred, obj)
	return nil
}

// RegisterGeometry associates a pre-parsed geometry with a WKT literal
// term, so a subsequent Add of that literal skips WKT parsing. Sharded
// bulk loaders (internal/storage.BulkLoad) parse WKT in parallel workers
// and register here from the single writer.
func (s *Store) RegisterGeometry(obj rdf.Term, g geom.Geometry) {
	id := s.rdfStore.Dict().Encode(obj)
	s.mu.Lock()
	if _, ok := s.geoms[id]; !ok {
		s.geoms[id] = g
		s.unindexed = append(s.unindexed, id)
	}
	s.mu.Unlock()
}

// RestoreGeometries scans the dictionary for geo:wktLiteral terms and
// (re-)parses any that are not yet registered, sharding the WKT parsing
// across CPUs. Call it after snapshot/WAL recovery populated the
// underlying RDF store directly.
func (s *Store) RestoreGeometries() error {
	type pending struct {
		id rdf.ID
		t  rdf.Term
	}
	var todo []pending
	s.mu.RLock()
	s.rdfStore.Dict().Range(func(id rdf.ID, t rdf.Term) bool {
		if t.IsGeometry() {
			if _, ok := s.geoms[id]; !ok {
				todo = append(todo, pending{id, t})
			}
		}
		return true
	})
	s.mu.RUnlock()
	if len(todo) == 0 {
		return nil
	}

	workers := runtime.NumCPU()
	if workers > len(todo) {
		workers = len(todo)
	}
	parsed := make([]geom.Geometry, len(todo))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(todo); i += workers {
				g, err := geom.ParseWKT(todo[i].t.Value)
				if err != nil {
					errs[w] = fmt.Errorf("geostore: restore %q: %w", todo[i].t.Value, err)
					return
				}
				parsed[i] = g
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.mu.Lock()
	for i, p := range todo {
		if _, ok := s.geoms[p.id]; !ok {
			s.geoms[p.id] = parsed[i]
			s.unindexed = append(s.unindexed, p.id)
		}
	}
	s.mu.Unlock()
	return nil
}

// LoadNTriples streams N-Triples into the store, registering geometry
// literals and sealing a journal batch every loadBatch triples, so an
// attached WAL sees bounded batches instead of one giant record. It
// returns the number of triples read; on error, triples before the
// offending line remain loaded (and journaled).
func (s *Store) LoadNTriples(r io.Reader) (int, error) {
	const loadBatch = 4096
	n := 0
	_, err := rdf.ScanNTriples(r, func(t rdf.Triple) error {
		if err := s.Add(t.S, t.P, t.O); err != nil {
			return err
		}
		n++
		if n%loadBatch == 0 {
			return s.rdfStore.CommitJournal()
		}
		return nil
	})
	if cerr := s.rdfStore.CommitJournal(); err == nil {
		err = cerr
	}
	return n, err
}

// AddFeature inserts the standard GeoSPARQL triple shape for a feature:
//
//	<iri> rdf:type <class> .
//	<iri> geo:hasGeometry <iri/geom> .
//	<iri/geom> geo:asWKT "..."^^geo:wktLiteral .
//	<iri> <prop> <value> .   (for each property)
func (s *Store) AddFeature(f Feature) error {
	subj := rdf.NewIRI(f.IRI)
	if f.Class != "" {
		s.rdfStore.Add(subj, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(f.Class))
	}
	geomNode := rdf.NewIRI(f.IRI + "/geom")
	s.rdfStore.Add(subj, rdf.NewIRI(rdf.GeoHasGeometry), geomNode)
	if err := s.Add(geomNode, rdf.NewIRI(rdf.GeoAsWKT), rdf.NewWKTLiteral(f.Geometry.WKT())); err != nil {
		return err
	}
	for p, o := range f.Props {
		s.rdfStore.Add(subj, rdf.NewIRI(p), o)
	}
	return nil
}

// Build brings the R-tree up to date with the registered geometries.
// Queries call it implicitly, and it returns under the read lock alone
// when nothing was registered since the last call; bulk loaders should
// call it once after ingest for deterministic timing. Geometries
// registered since the last refresh are inserted one by one, so a small
// load costs its own size; an empty tree, or one that inserts have grown
// past 1/rebulkFraction of its last packed size, is bulk-loaded afresh,
// which restores the packing quality inserts erode.
func (s *Store) Build() {
	s.mu.RLock()
	stale := len(s.unindexed) > 0
	s.mu.RUnlock()
	if !stale {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.unindexed) == 0 {
		return // another caller refreshed it in between
	}
	if (len(s.geoms)-s.bulkLen)*rebulkFraction > s.bulkLen {
		bounds := make([]geom.Rect, 0, len(s.geoms))
		data := make([]int64, 0, len(s.geoms))
		for id, g := range s.geoms {
			bounds = append(bounds, g.Bounds())
			data = append(data, int64(id))
		}
		s.rtree = geom.NewRTree()
		s.rtree.BulkLoad(bounds, data)
		s.bulkLen = len(s.geoms)
		s.bulkLoads++
	} else {
		for _, id := range s.unindexed {
			s.rtree.Insert(s.geoms[id].Bounds(), int64(id))
		}
		s.insertBuilds++
	}
	s.unindexed = nil
}

// QueryString parses and evaluates an stSPARQL query.
func (s *Store) QueryString(qs string) (*sparql.Results, error) {
	q, err := sparql.Parse(qs)
	if err != nil {
		return nil, err
	}
	return s.Query(q)
}

// Query evaluates a parsed query according to the store mode.
func (s *Store) Query(q *sparql.Query) (*sparql.Results, error) {
	return s.QueryContext(context.Background(), q)
}

// QueryContext is Query with cancellation: when the store runs the
// morsel-driven parallel executor, ctx is polled at every morsel
// dispatch (and inside exploding morsels), so a timed-out or abandoned
// query stops all its workers promptly and returns ctx.Err(). The
// sequential paths are not preemptible and ignore ctx.
func (s *Store) QueryContext(ctx context.Context, q *sparql.Query) (*sparql.Results, error) {
	if s.mode == ModeNaive {
		// The 2012-era baseline: map-based nested-loop evaluation with
		// per-row WKT parsing, kept as the E1/E2 contrast and as the
		// reference oracle for the slot executor.
		return sparql.EvalLegacy(s.rdfStore, q)
	}
	res, _, err := s.queryIndexed(ctx, q, false)
	return res, err
}

// QueryAnalyze is QueryContext with EXPLAIN ANALYZE profiling: the query
// runs with executor stats collection on and the per-step profile is
// returned alongside the results. Naive mode's legacy evaluator is not
// instrumented; it returns a timing-only profile with a note.
func (s *Store) QueryAnalyze(ctx context.Context, q *sparql.Query) (*sparql.Results, *sparql.Profile, error) {
	if s.mode == ModeNaive {
		start := time.Now()
		res, err := sparql.EvalLegacy(s.rdfStore, q)
		if err != nil {
			return nil, nil, err
		}
		prof := &sparql.Profile{
			Query:       q.Canonical(),
			Fingerprint: q.Fingerprint(),
			ElapsedNs:   int64(time.Since(start)),
			Rows:        res.Len(),
			Note:        "naive mode: legacy map-based evaluator (per-step stats not collected)",
		}
		return res, prof, nil
	}
	return s.queryIndexed(ctx, q, true)
}

// logCanceled records a query cancellation with the request ID from ctx.
func (s *Store) logCanceled(ctx context.Context, q *sparql.Query) {
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(ctx, slog.LevelWarn, "query canceled",
		slog.String("request_id", sparql.RequestIDFrom(ctx)),
		slog.String("fingerprint", q.Fingerprint()))
}

// queryIndexed is the filter-and-refine pipeline of the re-engineered
// store, running entirely on the compiled slot executor: the most
// selective accelerable spatial filter seeds the pipeline with sorted
// R-tree survivors (enabling merge joins against the seed stream),
// remaining spatial filters refine against pre-parsed geometries inside
// the pipeline at the step that binds their variable, and non-spatial
// filters are pushed down by the planner. Compiled plans are cached by
// canonical query text and store version. With SetParallel(>= 2) the
// plan runs on the morsel-driven parallel executor — spatial refiners
// and probe steps included — with ctx cancellation threaded into morsel
// dispatch.
func (s *Store) queryIndexed(ctx context.Context, q *sparql.Query, analyze bool) (*sparql.Results, *sparql.Profile, error) {
	entry, err := s.cachedPlan(q)
	if err != nil {
		return nil, nil, err
	}
	if len(entry.spatial) > 0 || len(entry.joins) > 0 {
		// Both the seed scan and the spatial-join probe steps read the
		// R-tree during execution.
		s.Build()
	}
	var seeds []rdf.Row
	if len(entry.spatial) > 0 {
		seedIDs := s.seedIDs(entry.spatial[0])
		if len(seedIDs) == 0 {
			var prof *sparql.Profile
			if analyze {
				prof = &sparql.Profile{
					Query:       q.Canonical(),
					Fingerprint: q.Fingerprint(),
					Note:        "spatial seed produced no candidates; pipeline not run",
				}
			}
			return &sparql.Results{Vars: q.Vars}, prof, nil
		}
		seeds = entry.plan.SeedRows(seedIDs)
	}
	if s.parallel >= 2 {
		px := sparql.ParallelExec{
			Degree:  s.parallel,
			Cancel:  func() bool { return ctx.Err() != nil },
			Gate:    s.gate,
			Morsels: &s.execMorsels,
		}
		var (
			res  *sparql.Results
			prof *sparql.Profile
		)
		if analyze {
			res, prof, err = entry.plan.ExecuteParallelAnalyzed(seeds, px)
		} else {
			res, err = entry.plan.ExecuteParallelSeeded(seeds, px)
		}
		if errors.Is(err, sparql.ErrCanceled) {
			s.logCanceled(ctx, q)
			return nil, nil, ctx.Err()
		}
		return res, prof, err
	}
	if analyze {
		return entry.plan.ExecuteAnalyzed(seeds)
	}
	res, err := entry.plan.ExecuteSeeded(seeds)
	return res, nil, err
}

// cachedPlan returns the compiled plan for q at the current store
// version, compiling and caching on miss.
func (s *Store) cachedPlan(q *sparql.Query) (*planEntry, error) {
	key := q.Canonical()
	version := s.Version()
	if e, ok := s.plans.get(key, version); ok {
		return e, nil
	}
	spatial := sparql.ExtractSpatialFilters(q)
	joins := sparql.ExtractSpatialJoins(q)
	// Parallel only annotates Explain (workers=N and the split); it does
	// not change compilation, so the cache key stays (query, version).
	opt := sparql.PlanOpts{Parallel: s.parallel}
	if len(spatial) > 0 {
		// Seed from the first spatial filter; the others become pushed
		// refiners. Filters fully enforced by index+refinement are
		// skipped in the generic pass.
		opt.SeedVar = spatial[0].Var
		opt.SeedsSorted = true
		opt.SkipFilters = make(map[int]bool)
		if spatial[0].Exclusive {
			opt.SkipFilters[spatial[0].FilterIndex] = true
		}
		for _, sf := range spatial[1:] {
			if sf.Exclusive {
				opt.SkipFilters[sf.FilterIndex] = true
			}
			sf := sf
			opt.Refiners = append(opt.Refiners, sparql.Refiner{
				Var:   sf.Var,
				Label: "spatial refine " + sf.Fn + "(?" + sf.Var + ", ...)",
				Pred:  func(id rdf.ID) bool { return s.refine(sf, id) },
			})
		}
	}
	// Variable-variable spatial predicates become index join probes:
	// once the pipeline binds one side's geometry, the R-tree generates
	// exact candidates for the other side instead of the cartesian scan
	// the generic filter would force. Probes refine exactly, so an
	// exclusive join filter is fully enforced and skipped generically.
	for _, sj := range joins {
		if sj.Exclusive {
			if opt.SkipFilters == nil {
				opt.SkipFilters = make(map[int]bool)
			}
			opt.SkipFilters[sj.FilterIndex] = true
		}
		sj := sj
		opt.Probes = append(opt.Probes, sparql.JoinProbe{
			VarA: sj.VarA, VarB: sj.VarB,
			Candidates: func(bound rdf.ID, aBound bool, yield func(rdf.ID) bool) {
				s.probeJoin(sj, bound, aBound, yield)
			},
			Check: func(a, b rdf.ID) bool { return s.checkJoin(sj, a, b) },
			Label: "spatial index join " + sj.String() + " (R-tree probe + exact refine)",
		})
	}
	plan, err := sparql.CompilePlan(s.rdfStore, q, opt)
	if err != nil {
		return nil, err
	}
	e := &planEntry{key: key, version: version, plan: plan, spatial: spatial, joins: joins}
	s.plans.put(e)
	return e, nil
}

// probeJoin answers one index spatial-join probe: search the R-tree with
// the bound geometry's join window (its MBR, distance-expanded for
// distance joins) and refine candidates exactly, honouring the
// predicate's argument order. Yielded IDs therefore satisfy the join
// predicate — the executor does not re-check.
//
// The matches are collected under the read lock and yielded after it is
// released: yield runs the rest of the pipeline, whose refiners, probes
// and checks take the read lock again, and a recursive RLock deadlocks
// against a writer queued in between.
func (s *Store) probeJoin(sj sparql.SpatialJoin, bound rdf.ID, aBound bool, yield func(rdf.ID) bool) {
	for _, id := range s.probeMatches(sj, bound, aBound) {
		if !yield(id) {
			return
		}
	}
}

// probeMatches collects the candidates of one probeJoin under the lock.
func (s *Store) probeMatches(sj sparql.SpatialJoin, bound rdf.ID, aBound bool) []rdf.ID {
	s.joinProbes.Add(1)
	rel := sj.Relation()
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, ok := s.geoms[bound]
	if !ok {
		// Not a registered geometry: the predicate errors on this row in
		// SPARQL semantics, so it contributes no candidates.
		return nil
	}
	var matches []rdf.ID
	s.rtree.Search(geom.JoinWindow(rel, g, sj.Distance), func(_ geom.Rect, data int64) bool {
		id := rdf.ID(data)
		cand, ok := s.geoms[id]
		if !ok {
			return true
		}
		var holds bool
		if aBound {
			holds = geom.JoinHolds(rel, g, cand, sj.Distance)
		} else {
			holds = geom.JoinHolds(rel, cand, g, sj.Distance)
		}
		if holds {
			matches = append(matches, id)
		}
		return true
	})
	return matches
}

// checkJoin tests the join predicate between two already-bound geometry
// IDs (the planner's fallback when pattern steps bound both sides before
// a probe step could run).
func (s *Store) checkJoin(sj sparql.SpatialJoin, a, b rdf.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ga, ok := s.geoms[a]
	if !ok {
		return false
	}
	gb, ok := s.geoms[b]
	if !ok {
		return false
	}
	return geom.JoinHolds(sj.Relation(), ga, gb, sj.Distance)
}

// SpatialJoinStats returns the number of index spatial-join probes the
// store has answered (exposed by /metrics as
// sparql_spatial_join_probes_total).
func (s *Store) SpatialJoinStats() (probes uint64) { return s.joinProbes.Load() }

// PlanCacheStats returns the plan cache hit/miss counters (exposed by
// the endpoint's /metrics).
func (s *Store) PlanCacheStats() (hits, misses uint64) { return s.plans.stats() }

// Explain compiles (or fetches) the plan for q and renders the chosen
// join order, access paths and pushed filters, followed by one strategy
// line per spatial predicate (index spatial join vs cartesian+filter) so
// an unaccelerable predicate is never silent.
func (s *Store) Explain(q *sparql.Query) (string, error) {
	if s.mode == ModeNaive {
		text := "naive mode: legacy map-based nested-loop evaluator (no compiled plan)\n" +
			"spatial strategy: every spatial predicate evaluated per row after the full join\n" +
			"(cartesian scan + exact filter for variable-variable predicates)\n"
		return text, nil
	}
	entry, err := s.cachedPlan(q)
	if err != nil {
		return "", err
	}
	text := entry.plan.Explain()
	if rep := sparql.SpatialReport(q); len(rep) > 0 {
		text += strings.Join(rep, "\n") + "\n"
	}
	return text, nil
}

// seedIDs runs the R-tree window query for the filter and refines
// survivors exactly, returning the passing geometry literal IDs.
func (s *Store) seedIDs(sf sparql.SpatialFilter) []rdf.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []rdf.ID
	s.rtree.Search(sf.Window, func(_ geom.Rect, data int64) bool {
		id := rdf.ID(data)
		if s.refineLocked(sf, id) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// refine tests the exact spatial predicate between the stored geometry and
// the filter geometry.
func (s *Store) refine(sf sparql.SpatialFilter, id rdf.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.refineLocked(sf, id)
}

func (s *Store) refineLocked(sf sparql.SpatialFilter, id rdf.ID) bool {
	g, ok := s.geoms[id]
	if !ok {
		return false
	}
	switch sf.Fn {
	case sparql.FnSfIntersects:
		return geom.Intersects(g, sf.Geometry)
	case sparql.FnSfWithin:
		return geom.Within(g, sf.Geometry)
	case sparql.FnSfContains:
		return geom.Contains(g, sf.Geometry)
	default:
		return false
	}
}

// PartitionedStore is experiment E1's scale-out axis: features are
// hash-partitioned by IRI across k indexed stores, and a query runs on
// every partition in parallel with the rows concatenated. That answer is
// exact only when each solution lies inside one feature's triples, whose
// subjects (the feature IRI and its geometry node) share a partition and
// whose IRI objects name no other feature. QueryString refuses every
// other query with a *NotConcatenableError rather than answer it wrongly.
type PartitionedStore struct {
	parts []*Store
}

// NotConcatenableError is PartitionedStore's refusal of a query whose
// answer is not the concatenation of the partitions' answers.
type NotConcatenableError struct {
	// Reason names the offending query feature (DISTINCT, ORDER BY,
	// LIMIT, OFFSET, an aggregate, or patterns spanning features).
	Reason string
}

func (e *NotConcatenableError) Error() string {
	return "geostore: partitioned store cannot answer a query with " + e.Reason +
		": its answer is not a concatenation of partition answers"
}

// NewPartitioned returns a store with k indexed partitions.
func NewPartitioned(k int) *PartitionedStore {
	if k < 1 {
		k = 1
	}
	ps := &PartitionedStore{parts: make([]*Store, k)}
	for i := range ps.parts {
		ps.parts[i] = New(ModeIndexed)
	}
	return ps
}

// NumPartitions returns the partition count.
func (ps *PartitionedStore) NumPartitions() int { return len(ps.parts) }

// AddFeature routes a feature to a partition by IRI hash.
func (ps *PartitionedStore) AddFeature(f Feature) error {
	return ps.parts[fnvHash(f.IRI)%uint32(len(ps.parts))].AddFeature(f)
}

// Build brings all partition indexes up to date in parallel.
func (ps *PartitionedStore) Build() {
	var wg sync.WaitGroup
	for _, p := range ps.parts {
		wg.Add(1)
		go func(p *Store) {
			defer wg.Done()
			p.Build()
		}(p)
	}
	wg.Wait()
}

// QueryString parses a query, runs it on every partition in parallel and
// concatenates the rows in partition order.
func (ps *PartitionedStore) QueryString(qs string) (*sparql.Results, error) {
	q, err := sparql.Parse(qs)
	if err != nil {
		return nil, err
	}
	if reason := notConcatenable(q); reason != "" {
		return nil, &NotConcatenableError{Reason: reason}
	}
	out := make([]*sparql.Results, len(ps.parts))
	errs := make([]error, len(ps.parts))
	var wg sync.WaitGroup
	for i, p := range ps.parts {
		wg.Add(1)
		go func(i int, p *Store) {
			defer wg.Done()
			out[i], errs[i] = p.Query(q)
		}(i, p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	res := &sparql.Results{Vars: out[0].Vars}
	for _, r := range out {
		res.Rows = append(res.Rows, r.Rows...)
	}
	return res, nil
}

// notConcatenable names the first feature of q that makes its answer
// differ from the concatenation of per-partition answers, or returns "".
// Solution modifiers act on the whole answer. A solution stays inside
// one feature when all pattern subjects are linked to each other through
// patterns whose object is another pattern's subject (as ?g links
// "?f geo:hasGeometry ?g" to "?g geo:asWKT ?w"); a variable-variable
// spatial join, a cartesian product or a join on a shared object value
// leaves subjects unlinked.
func notConcatenable(q *sparql.Query) string {
	switch {
	case q.Distinct:
		return "DISTINCT"
	case q.OrderBy != "":
		return "ORDER BY"
	case q.Limit > 0:
		return "LIMIT"
	case q.Offset > 0:
		return "OFFSET"
	case len(q.Aggregates) > 0 || q.GroupBy != "":
		return "an aggregate"
	}
	if len(q.Patterns) == 0 {
		return ""
	}
	// Subject nodes: a variable by its name, a constant by its term text.
	node := func(t rdf.PatternTerm) string {
		if t.IsVar() {
			return "?" + t.Var
		}
		return t.Term.String()
	}
	subjects := map[string]bool{}
	for _, tp := range q.Patterns {
		subjects[node(tp.S)] = true
	}
	// Grow one group from the first subject across pattern links whose
	// object is itself a subject, until it stops growing.
	group := map[string]bool{node(q.Patterns[0].S): true}
	for grew := true; grew; {
		grew = false
		for _, tp := range q.Patterns {
			s, o := node(tp.S), node(tp.O)
			if subjects[o] && group[s] != group[o] {
				group[s], group[o] = true, true
				grew = true
			}
		}
	}
	if len(group) < len(subjects) {
		return "patterns spanning features (e.g. a variable-variable spatial join)"
	}
	return ""
}

func fnvHash(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// MemoryStats extends the RDF store's accounting with the geospatial
// structures: parsed geometries, the R-tree and the plan cache. Like
// rdf.Store.MemoryStats it is O(dictionary terms); scrape paths should
// cache the result per read rather than calling it per gauge.
func (s *Store) MemoryStats() telemetry.StoreMemory {
	m := s.rdfStore.MemoryStats()
	s.mu.RLock()
	m.Geometries = int64(len(s.geoms))
	nodes, entries := s.rtree.Stats()
	m.RTreeBulkLoads, m.RTreeInsertBuilds = s.bulkLoads, s.insertBuilds
	s.mu.RUnlock()
	m.RTreeNodes = int64(nodes)
	m.RTreeEntries = int64(entries)
	m.PlanCacheEntries = int64(s.plans.len())
	return m
}
