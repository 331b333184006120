package endpoint

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/telemetry"
)

// latencyBuckets are the upper bounds (seconds) of the query latency
// histogram, chosen to straddle in-memory query times through slow
// analytic queries.
var latencyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// Metric family names. One const per family keeps the namespace
// greppable and lets the eevet metricsreg check verify that every
// registration uses a name the README table can enumerate.
const (
	metricQueries        = "sparql_queries_total"
	metricQueryErrors    = "sparql_query_errors_total"
	metricCacheHits      = "sparql_cache_hits_total"
	metricCacheMisses    = "sparql_cache_misses_total"
	metricRejected       = "sparql_rejected_total"
	metricReplicaLagGate = "sparql_replica_rejected_total"
	metricTimeouts       = "sparql_timeouts_total"
	metricLoads          = "sparql_loads_total"
	metricLoadErrors     = "sparql_load_errors_total"
	metricLoadedTriples  = "sparql_loaded_triples_total"
	metricSlowQueries    = "sparql_slow_queries_total"
	metricExecRows       = "sparql_exec_rows_total"
	metricFilterDrops    = "sparql_filter_drops_total"
	metricQuerySeconds   = "sparql_query_duration_seconds"
	metricPlanCacheHits  = "sparql_plan_cache_hits_total"
	metricPlanCacheMiss  = "sparql_plan_cache_misses_total"
	metricSpatialProbes  = "sparql_spatial_join_probes_total"
	metricExecMorsels    = "sparql_exec_morsels_total"
	metricWorkersBusy    = "sparql_exec_workers_busy"
	metricCacheEntries   = "sparql_cache_entries"
	metricBuildInfo      = "sparql_build_info"
	metricUptimeSeconds  = "sparql_uptime_seconds"
	metricGoroutines     = "sparql_goroutines"
	metricHeapBytes      = "sparql_heap_bytes"
	metricMemDictTerms   = "store_memory_dict_terms"
	metricMemDictBytes   = "store_memory_dict_bytes"
	metricMemIdxTriples  = "store_memory_index_triples"
	metricMemIdxBytes    = "store_memory_index_bytes"
	metricMemDedup       = "store_memory_dedup_entries"
	metricMemGeometries  = "store_memory_geometries"
	metricMemRTreeNodes  = "store_memory_rtree_nodes"
	metricMemRTreeSlots  = "store_memory_rtree_entries"
	metricMemPlanEntries = "store_memory_plan_cache_entries"
	metricIndexFlushes   = "store_index_flushes_total"
	metricIndexFlushSecs = "store_index_flush_seconds_total"
	metricRTreeBuilds    = "store_rtree_builds_total"
)

// metrics holds the endpoint's operational counters, registered on the
// server's telemetry registry so /metrics renders them alongside the
// storage and memory families. Construct with newMetrics; the handlers
// mutate the counters directly on the hot path (atomic increments, no
// registry involvement).
type metrics struct {
	queries     *telemetry.Counter // completed queries (any outcome)
	errors      *telemetry.Counter // parse, evaluation, or serialize failures
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	rejected    *telemetry.Counter // admission-control 503s
	timeouts    *telemetry.Counter // per-query deadline expirations

	// replicaRejected counts queries bounced by the replica lag gate
	// (LagPolicyReject only). Registered in registerRuntimeMetrics when
	// the server fronts a replica; nil elsewhere, where admitReplicaQuery
	// returns before touching it.
	replicaRejected *telemetry.Counter

	// Per-kind breakdown of errors; timeouts above is the fifth kind.
	errParse     *telemetry.Counter
	errEval      *telemetry.Counter
	errSerialize *telemetry.Counter
	errPanic     *telemetry.Counter // recovered handler/engine panics

	slowQueries *telemetry.Counter // queries captured by the slow-query ring
	execRows    *telemetry.Counter // result rows produced by evaluations
	filterDrops *telemetry.Counter // rows dropped by pushed filters (profiled runs)

	loads         *telemetry.Counter // successful POST /load requests
	loadErrors    *telemetry.Counter // failed POST /load requests
	loadedTriples *telemetry.Counter // triples read by POST /load (incl. partial loads)

	latency *telemetry.Histogram // sparql_query_duration_seconds
}

// newMetrics registers the endpoint counter families on reg in the
// order the hand-rolled /metrics handler historically printed them, so
// the exposition stays byte-stable for scrapers and the README drift
// test.
func newMetrics(reg *telemetry.Registry) metrics {
	var m metrics
	m.queries = reg.Counter(metricQueries, "Completed SPARQL protocol requests.")
	// One family, five samples: the unlabeled total (kept for dashboards
	// predating the split) plus the per-kind breakdown. The timeout kind
	// mirrors sparql_timeouts_total — one shared counter attached to both
	// families, so the two series can never drift apart.
	m.errors = telemetry.NewCounter()
	m.timeouts = telemetry.NewCounter()
	errs := reg.CounterFamily(metricQueryErrors, "Requests that failed to parse, evaluate, or serialize.")
	errs.Attach(m.errors)
	m.errParse = errs.Counter("kind", "parse")
	m.errEval = errs.Counter("kind", "eval")
	m.errSerialize = errs.Counter("kind", "serialize")
	m.errPanic = errs.Counter("kind", "panic")
	errs.Attach(m.timeouts, "kind", "timeout")
	m.cacheHits = reg.Counter(metricCacheHits, "Requests served from the result cache.")
	m.cacheMisses = reg.Counter(metricCacheMisses, "Requests that missed the result cache.")
	m.rejected = reg.Counter(metricRejected, "Requests rejected by admission control.")
	reg.CounterFamily(metricTimeouts, "Requests cancelled by the per-query timeout.").Attach(m.timeouts)
	m.loads = reg.Counter(metricLoads, "Successful POST /load ingestions.")
	m.loadErrors = reg.Counter(metricLoadErrors, "Failed POST /load ingestions.")
	m.loadedTriples = reg.Counter(metricLoadedTriples, "Triples read by POST /load.")
	m.slowQueries = reg.Counter(metricSlowQueries, "Queries captured by the slow-query ring.")
	m.execRows = reg.Counter(metricExecRows, "Result rows produced by query evaluations.")
	m.filterDrops = reg.Counter(metricFilterDrops, "Rows dropped by pushed filters in profiled evaluations.")
	m.latency = reg.DurationHistogram(metricQuerySeconds, "Query latency histogram.", latencyBuckets)
	return m
}

// errKind labels the per-kind error counters.
type errKind int

const (
	errKindParse errKind = iota
	errKindEval
	errKindSerialize
	errKindPanic
)

// countError bumps the unlabeled error total plus the matching kind
// counter, so sparql_query_errors_total stays the sum dashboards built
// on the unlabeled series expect.
func (m *metrics) countError(k errKind) {
	m.errors.Inc()
	switch k {
	case errKindParse:
		m.errParse.Inc()
	case errKindEval:
		m.errEval.Inc()
	case errKindSerialize:
		m.errSerialize.Inc()
	case errKindPanic:
		m.errPanic.Inc()
	}
}

// observe records one query latency in the histogram.
func (m *metrics) observe(d time.Duration) { m.latency.ObserveDuration(d) }

// CacheHits returns the number of queries answered from the result cache.
func (s *Server) CacheHits() uint64 { return s.metrics.cacheHits.Load() }

// PlanCacheStatser is the optional engine capability behind the plan
// cache metrics: engines that compile and cache slot-based query plans
// (*geostore.Store) report their counters.
type PlanCacheStatser interface {
	PlanCacheStats() (hits, misses uint64)
}

// SpatialJoinStatser is the optional engine capability behind the
// spatial-join metric: engines that answer variable-variable spatial
// predicates with R-tree index joins report how many probes they issued.
type SpatialJoinStatser interface {
	SpatialJoinStats() (probes uint64)
}

// ExecStatser is the optional engine capability behind the parallel
// executor metric: engines running morsel-driven execution report how
// many morsels they dispatched (sparql_exec_morsels_total).
type ExecStatser interface {
	ExecStats() (morsels uint64)
}

// MemoryStatser is the optional engine capability behind the
// store_memory_* gauges and GET /debug/store: engines that can account
// for their in-memory footprint (dictionary, index, R-tree, plan cache)
// report it as a telemetry.StoreMemory. *geostore.Store implements it.
type MemoryStatser interface {
	MemoryStats() telemetry.StoreMemory
}

// registerRuntimeMetrics adds the engine-capability counters, runtime
// gauges, and store-memory gauges to the registry. Called once from
// New, after newMetrics, preserving the historical family order.
func (s *Server) registerRuntimeMetrics() {
	reg := s.reg
	if s.cfg.Replica != nil {
		s.metrics.replicaRejected = reg.Counter(metricReplicaLagGate,
			"Queries rejected because this replica exceeded its staleness budget (lag-policy reject).")
	}
	if pc, ok := s.engine.(PlanCacheStatser); ok {
		reg.CounterFunc(metricPlanCacheHits, "Queries evaluated with a cached compiled plan.",
			func() uint64 { hits, _ := pc.PlanCacheStats(); return hits })
		reg.CounterFunc(metricPlanCacheMiss, "Queries that compiled a fresh plan.",
			func() uint64 { _, misses := pc.PlanCacheStats(); return misses })
	}
	if sj, ok := s.engine.(SpatialJoinStatser); ok {
		reg.CounterFunc(metricSpatialProbes, "R-tree probes issued by index spatial joins.", sj.SpatialJoinStats)
	}
	if es, ok := s.engine.(ExecStatser); ok {
		reg.CounterFunc(metricExecMorsels, "Morsels dispatched by the parallel query executor.", es.ExecStats)
	}
	if s.cfg.Workers != nil {
		reg.IntGaugeFunc(metricWorkersBusy, "Executor worker slots currently in use.", s.cfg.Workers.Busy)
	}
	reg.IntGaugeFunc(metricCacheEntries, "Live result cache entries.", func() int64 { return int64(s.cache.len()) })

	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	reg.GaugeFamily(metricBuildInfo, "Build metadata; the value is always 1.").
		// The build-info labels are process-constant but only known at
		// runtime; one series per process, so no cardinality risk.
		//eevet:ignore metricsreg go_version/version are process-constant runtime values
		Const(1, "go_version", runtime.Version(), "version", version)
	reg.GaugeFunc(metricUptimeSeconds, "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.IntGaugeFunc(metricGoroutines, "Current goroutine count.",
		func() int64 { return int64(runtime.NumGoroutine()) })
	reg.IntGaugeFunc(metricHeapBytes, "Bytes of allocated heap objects.", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	})

	if ms, ok := s.engine.(MemoryStatser); ok {
		// Walking the store's memory accounting takes the store locks and
		// is O(dictionary terms), so a prepare hook caches one walk per
		// scrape and the families below read the cached copy.
		reg.AddPrepare(func() {
			mem := ms.MemoryStats()
			s.storeMem.Store(&mem)
		})
		read := func(f func(*telemetry.StoreMemory) int64) func() int64 {
			return func() int64 {
				if m := s.storeMem.Load(); m != nil {
					return f(m)
				}
				return 0
			}
		}
		reg.IntGaugeFunc(metricMemDictTerms, "Interned RDF dictionary terms.",
			read(func(m *telemetry.StoreMemory) int64 { return m.DictTerms }))
		reg.IntGaugeFunc(metricMemDictBytes, "Bytes of interned term text (values, datatypes, language tags).",
			read(func(m *telemetry.StoreMemory) int64 { return m.DictBytes }))
		triples := reg.GaugeFamily(metricMemIdxTriples, "Encoded triples held per index ordering.")
		for _, idx := range []string{"spo", "pos", "osp", "pending"} {
			idx := idx
			triples.IntFunc(read(func(m *telemetry.StoreMemory) int64 { return m.IndexTriples[idx] }), "index", idx)
		}
		reg.IntGaugeFunc(metricMemIdxBytes, "Bytes of encoded triples across the sorted indexes and pending runs.",
			read(func(m *telemetry.StoreMemory) int64 { return m.IndexBytes }))
		reg.IntGaugeFunc(metricMemDedup, "Entries in the ingestion dedup set.",
			read(func(m *telemetry.StoreMemory) int64 { return m.DedupEntries }))
		reg.IntGaugeFunc(metricMemGeometries, "Parsed geometries held by the geo store.",
			read(func(m *telemetry.StoreMemory) int64 { return m.Geometries }))
		reg.IntGaugeFunc(metricMemRTreeNodes, "Nodes in the spatial R-tree.",
			read(func(m *telemetry.StoreMemory) int64 { return m.RTreeNodes }))
		reg.IntGaugeFunc(metricMemRTreeSlots, "Entry slots across all R-tree nodes.",
			read(func(m *telemetry.StoreMemory) int64 { return m.RTreeEntries }))
		reg.IntGaugeFunc(metricMemPlanEntries, "Compiled query plans held by the plan cache.",
			read(func(m *telemetry.StoreMemory) int64 { return m.PlanCacheEntries }))

		// Index maintenance, the "index merge" stage of a load, which the
		// first read after it pays.
		count := func(f func(*telemetry.StoreMemory) int64) func() uint64 {
			g := read(f)
			return func() uint64 { return uint64(g()) }
		}
		reg.CounterFunc(metricIndexFlushes, "Merges of loaded triples into the sorted triple indexes.",
			count(func(m *telemetry.StoreMemory) int64 { return m.IndexFlushes }))
		reg.FloatCounterFunc(metricIndexFlushSecs, "Seconds index merges held the store's write lock.", func() float64 {
			if m := s.storeMem.Load(); m != nil {
				return m.IndexFlushSeconds
			}
			return 0
		})
		builds := reg.CounterFamily(metricRTreeBuilds, "R-tree refreshes after a load, by kind: whole-tree bulk load or insertion of the new geometries.")
		builds.AttachFunc(count(func(m *telemetry.StoreMemory) int64 { return m.RTreeBulkLoads }), "kind", "bulk")
		builds.AttachFunc(count(func(m *telemetry.StoreMemory) int64 { return m.RTreeInsertBuilds }), "kind", "insert")
	}
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleHealthz reports liveness plus basic store facts, so load balancers
// and Sextant deployments can gate traffic on it. When admission control
// is saturated it answers 503 "overloaded", letting balancers drain
// traffic away before requests start bouncing off the semaphore. A
// degraded (read-only) store reports status "degraded" with the cause
// but stays 200: queries still serve, and draining read traffic away
// from a store that can answer it would turn a partial failure into a
// full one.
// Replication adds a role field ("primary" or "replica"); a replica
// additionally reports its lag, and a sticky stream failure surfaces
// as status "degraded" with the cause — still 200, same reasoning as a
// degraded store: the replica keeps answering from its last applied
// state, and the lag-policy gate (not liveness) decides whether that
// is acceptable per query.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, cause := "ok", ""
	if s.cfg.Degraded != nil {
		if derr := s.cfg.Degraded(); derr != nil {
			status, cause = "degraded", derr.Error()
		}
	}
	role, lagField := "", ""
	if s.cfg.Replica != nil {
		role = "replica"
		rs := s.cfg.Replica()
		lagField = fmt.Sprintf(",\"replica_lag_seconds\":%.3f", rs.LagSeconds)
		if rs.Err != nil && status == "ok" {
			status, cause = "degraded", rs.Err.Error()
		}
	} else if s.cfg.Replication != nil {
		role = "primary"
	}
	if cap(s.sem) > 0 && len(s.sem) >= cap(s.sem) {
		status = "overloaded"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	doc := fmt.Sprintf("{\"status\":%q", status)
	if cause != "" {
		doc += fmt.Sprintf(",\"cause\":%q", cause)
	}
	if role != "" {
		doc += fmt.Sprintf(",\"role\":%q", role) + lagField
	}
	doc += fmt.Sprintf(",\"triples\":%d,\"store_version\":%d}\n", s.engine.Len(), s.engine.Version())
	io.WriteString(w, doc)
}
