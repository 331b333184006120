// Package geostore implements the geospatial RDF store of Challenge C3:
// Strabon re-engineered for scale. It layers geometry awareness over
// internal/rdf: WKT literals are parsed once at load time, indexed in an
// R-tree, and stSPARQL spatial filters are answered by filter-and-refine
// over the index instead of per-row WKT parsing.
//
// Three execution modes reproduce the E1/E2 experiment axes:
//
//   - ModeNaive mirrors the 2012-era Strabon evaluation strategy the paper
//     cites as insufficient: full scan of candidate bindings with exact
//     geometry tests (including WKT parsing) per row.
//   - ModeIndexed is the re-engineered single-node store: pre-parsed
//     geometries, R-tree pruning, exact refinement only on survivors.
//   - Partitioned (see PartitionedStore) adds scale-out: features are
//     hash-partitioned across k indexed stores queried in parallel.
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
func (s *Store) probeJoin(sj sparql.SpatialJoin, bound rdf.ID, aBound bool, yield func(rdf.ID) bool) {
	s.joinProbes.Add(1)
	rel := sj.Relation()
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, ok := s.geoms[bound]
	if !ok {
		// Not a registered geometry: the predicate errors on this row in
		// SPARQL semantics, so it contributes no candidates.
		return
	}
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
			return yield(id)
		}
		return true
	})
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

// PartitionedStore is the scale-out variant: features are hash-partitioned
// across k indexed stores and queries fan out in parallel. Because a
// feature's triples are co-located in one partition, BGP solutions never
// span partitions, so merging is concatenation — except for
// variable-variable spatial joins, whose two sides usually live in
// different partitions; those are evaluated by broadcasting the probe
// side across partitions (see partjoin.go).
type PartitionedStore struct {
	parts []*Store
	// joinProbes counts the global pairing probes of broadcast spatial
	// joins (partition-local probes are counted by each partition).
	joinProbes atomic.Uint64

	// parallel/gate mirror Store.SetParallel for the partitions and the
	// merged fallback store; logger mirrors Store.SetLogger.
	parallel int
	gate     rdf.WorkerGate
	logger   *slog.Logger

	// merged caches the transient single-node fallback store for
	// non-decomposable spatial-join queries, keyed on the summed
	// partition versions (see queryMerged).
	mergedMu      sync.Mutex
	merged        *Store
	mergedVersion uint64
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

// SetParallel enables morsel-driven parallel execution inside every
// partition (and the merged fallback store). Partitions already fan out
// across goroutines, so the gate matters even more here: it keeps
// partitions × morsel-workers from oversubscribing the host.
func (ps *PartitionedStore) SetParallel(degree int, gate rdf.WorkerGate) {
	ps.parallel, ps.gate = degree, gate
	for _, p := range ps.parts {
		p.SetParallel(degree, gate)
	}
	ps.mergedMu.Lock()
	if ps.merged != nil {
		ps.merged.SetParallel(degree, gate)
	}
	ps.mergedMu.Unlock()
}

// SetLogger attaches a structured logger to every partition (and the
// merged fallback store); see Store.SetLogger.
func (ps *PartitionedStore) SetLogger(l *slog.Logger) {
	ps.logger = l
	for _, p := range ps.parts {
		p.SetLogger(l)
	}
	ps.mergedMu.Lock()
	if ps.merged != nil {
		ps.merged.SetLogger(l)
	}
	ps.mergedMu.Unlock()
}

// ExecStats sums the partitions' dispatched-morsel counters with the
// merged fallback store's.
func (ps *PartitionedStore) ExecStats() (morsels uint64) {
	ps.mergedMu.Lock()
	if ps.merged != nil {
		morsels += ps.merged.ExecStats()
	}
	ps.mergedMu.Unlock()
	for _, p := range ps.parts {
		morsels += p.ExecStats()
	}
	return morsels
}

// Len returns the total triple count.
func (ps *PartitionedStore) Len() int {
	n := 0
	for _, p := range ps.parts {
		n += p.Len()
	}
	return n
}

// Version sums the partition version counters; it advances whenever any
// partition is mutated.
func (ps *PartitionedStore) Version() uint64 {
	var v uint64
	for _, p := range ps.parts {
		v += p.Version()
	}
	return v
}

// PlanCacheStats sums the partition plan cache counters.
func (ps *PartitionedStore) PlanCacheStats() (hits, misses uint64) {
	for _, p := range ps.parts {
		h, m := p.PlanCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// SpatialJoinStats sums partition-local probe counters with the global
// pairing probes of broadcast joins and the merged fallback store's
// probes.
func (ps *PartitionedStore) SpatialJoinStats() (probes uint64) {
	probes = ps.joinProbes.Load()
	ps.mergedMu.Lock()
	if ps.merged != nil {
		probes += ps.merged.SpatialJoinStats()
	}
	ps.mergedMu.Unlock()
	for _, p := range ps.parts {
		probes += p.SpatialJoinStats()
	}
	return probes
}

// AddFeature routes a feature to a partition by IRI hash.
func (ps *PartitionedStore) AddFeature(f Feature) error {
	return ps.parts[fnvHash(f.IRI)%uint32(len(ps.parts))].AddFeature(f)
}

// Build bulk-loads all partition indexes in parallel.
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

// QueryString parses and evaluates a query across all partitions.
func (ps *PartitionedStore) QueryString(qs string) (*sparql.Results, error) {
	q, err := sparql.Parse(qs)
	if err != nil {
		return nil, err
	}
	return ps.Query(q)
}

// Query fans the query out to every partition in parallel and merges the
// result rows, folding COUNT aggregates and re-applying DISTINCT, ORDER
// BY and LIMIT globally. When no global reordering or deduplication is
// needed, the limit is pushed down so each partition's slot pipeline
// short-circuits.
func (ps *PartitionedStore) Query(q *sparql.Query) (*sparql.Results, error) {
	return ps.QueryContext(context.Background(), q)
}

// QueryContext is Query with cancellation threaded into every
// partition's executor (see Store.QueryContext).
func (ps *PartitionedStore) QueryContext(ctx context.Context, q *sparql.Query) (*sparql.Results, error) {
	res, _, err := ps.queryCtx(ctx, q, false)
	return res, err
}

// QueryAnalyze is QueryContext with EXPLAIN ANALYZE profiling: the
// returned profile carries one sub-profile per partition (broadcast
// spatial joins, which run through a transient merged store, return a
// timing-only profile with a note instead).
func (ps *PartitionedStore) QueryAnalyze(ctx context.Context, q *sparql.Query) (*sparql.Results, *sparql.Profile, error) {
	return ps.queryCtx(ctx, q, true)
}

func (ps *PartitionedStore) queryCtx(ctx context.Context, q *sparql.Query, analyze bool) (*sparql.Results, *sparql.Profile, error) {
	start := time.Now()
	if joins := sparql.ExtractSpatialJoins(q); len(joins) > 0 {
		// Variable-variable spatial joins pair features across
		// partitions; per-partition evaluation would silently lose every
		// cross-partition pair.
		res, err := ps.querySpatialJoin(ctx, q, joins)
		if err != nil || !analyze {
			return res, nil, err
		}
		prof := &sparql.Profile{
			Query:       q.Canonical(),
			Fingerprint: q.Fingerprint(),
			ElapsedNs:   int64(time.Since(start)),
			Rows:        res.Len(),
			Note:        "broadcast spatial join across partitions: per-step executor profile not collected",
		}
		return res, prof, nil
	}
	type partRes struct {
		res  *sparql.Results
		prof *sparql.Profile
		err  error
	}
	// The limit survives pushdown only when partition results merge by
	// plain concatenation: any global sort or dedup could discard rows.
	// OFFSET never pushes down (each partition sees only part of the
	// stream), but it widens the pushed limit so enough rows survive.
	pushLimit := q.OrderBy == "" && !q.Distinct && len(q.Aggregates) == 0
	out := make([]partRes, len(ps.parts))
	var wg sync.WaitGroup
	for i, p := range ps.parts {
		wg.Add(1)
		go func(i int, p *Store) {
			defer wg.Done()
			local := *q
			local.Offset = 0
			if pushLimit && q.Limit > 0 {
				local.Limit = q.Limit + q.Offset
			} else {
				local.Limit = 0
			}
			if analyze {
				r, prof, err := p.QueryAnalyze(ctx, &local)
				out[i] = partRes{r, prof, err}
				return
			}
			r, err := p.QueryContext(ctx, &local)
			out[i] = partRes{res: r, err: err}
		}(i, p)
	}
	wg.Wait()
	var merged *sparql.Results
	var profs []*sparql.Profile
	for _, pr := range out {
		if pr.err != nil {
			return nil, nil, pr.err
		}
		profs = append(profs, pr.prof)
		if merged == nil {
			merged = pr.res
			continue
		}
		merged.Rows = append(merged.Rows, pr.res.Rows...)
	}
	if merged == nil {
		merged = &sparql.Results{Vars: q.Vars}
	}
	if len(q.Aggregates) > 0 {
		mergeAggregateRows(merged, q)
	}
	if q.Distinct {
		// Partitions deduplicate locally; identical rows can still
		// arrive from different partitions.
		dedupRows(merged)
	}
	if q.OrderBy != "" {
		sparql.SortRows(merged.Rows, q.OrderBy, q.OrderDesc)
	}
	sparql.ApplyOffsetLimit(merged, q)
	var prof *sparql.Profile
	if analyze {
		prof = &sparql.Profile{
			Query:       q.Canonical(),
			Fingerprint: q.Fingerprint(),
			ElapsedNs:   int64(time.Since(start)),
			Rows:        merged.Len(),
			Partitions:  profs,
		}
		for _, sub := range profs {
			if sub != nil {
				prof.Emitted += sub.Emitted
			}
		}
	}
	return merged, prof, nil
}

// mergeAggregateRows folds per-partition aggregate rows into global
// groups. Features are co-located, so every partition contributes
// disjoint solutions and COUNT columns simply sum; rows sharing a GROUP
// BY key (or the single global group) collapse into one.
func mergeAggregateRows(r *sparql.Results, q *sparql.Query) {
	type group struct {
		key    rdf.Term
		counts []int64
	}
	groups := map[string]*group{}
	var order []string
	for _, row := range r.Rows {
		key := ""
		if q.GroupBy != "" {
			key = row[q.GroupBy].String()
		}
		g := groups[key]
		if g == nil {
			g = &group{key: row[q.GroupBy], counts: make([]int64, len(q.Aggregates))}
			groups[key] = g
			order = append(order, key)
		}
		for i, a := range q.Aggregates {
			if n, err := row[a.As].Int(); err == nil {
				g.counts[i] += n
			}
		}
	}
	r.Rows = r.Rows[:0]
	for _, key := range order {
		g := groups[key]
		row := make(map[string]rdf.Term, len(q.Aggregates)+1)
		if q.GroupBy != "" {
			row[q.GroupBy] = g.key
		}
		for i, a := range q.Aggregates {
			row[a.As] = rdf.NewIntLiteral(g.counts[i])
		}
		r.Rows = append(r.Rows, row)
	}
}

// dedupRows removes duplicate result rows across partitions, keeping
// first-seen order.
func dedupRows(r *sparql.Results) {
	seen := make(map[string]bool, len(r.Rows))
	var key strings.Builder
	w := 0
	for _, row := range r.Rows {
		key.Reset()
		for _, v := range r.Vars {
			key.WriteString(row[v].String())
			key.WriteByte('\x00')
		}
		k := key.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		r.Rows[w] = row
		w++
	}
	r.Rows = r.Rows[:w]
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

// MemoryStats sums the partitions' accounting (plus the merged fallback
// store when one is cached) and records the partition count.
func (ps *PartitionedStore) MemoryStats() telemetry.StoreMemory {
	var m telemetry.StoreMemory
	for _, p := range ps.parts {
		pm := p.MemoryStats()
		m.Add(pm)
	}
	ps.mergedMu.Lock()
	merged := ps.merged
	ps.mergedMu.Unlock()
	if merged != nil {
		mm := merged.MemoryStats()
		// The merged store is a cache rebuilt from the partitions, not a
		// load target; counting its one build would make the maintenance
		// totals fall each time it is retired.
		mm.IndexFlushes, mm.IndexFlushSeconds, mm.RTreeBulkLoads, mm.RTreeInsertBuilds = 0, 0, 0, 0
		m.Add(mm)
	}
	m.Partitions = int64(len(ps.parts))
	return m
}
