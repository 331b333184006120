// Package endpoint is the network-facing serving layer of the
// re-engineered store: a W3C SPARQL-Protocol-style HTTP endpoint over
// internal/geostore. GET/POST /sparql parses stSPARQL with
// internal/sparql, evaluates against any Engine (the indexed geostore),
// and streams results in content-negotiated formats
// (SPARQL 1.1 JSON, CSV, TSV, GeoJSON via internal/sextant).
//
// Around the core handler sit the production concerns of the ROADMAP
// north star: an LRU result cache keyed on (normalized query fingerprint,
// store version, format) that invalidates itself when the store mutates;
// admission control bounding in-flight queries (503 + Retry-After on
// saturation) with a per-query timeout; and /metrics + /healthz exposing
// query counts, latency histograms and cache hit rates.
package endpoint

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/telemetry"
)

// Engine is the query-evaluation capability the endpoint serves.
// *geostore.Store implements it.
type Engine interface {
	// Query evaluates a parsed query.
	Query(q *sparql.Query) (*sparql.Results, error)
	// Version is a monotonic mutation counter used for cache invalidation.
	Version() uint64
	// Len returns the triple count (served by /healthz).
	Len() int
}

// ContextEngine is the optional cancellation capability of an Engine:
// engines running the morsel-driven parallel executor poll ctx at every
// morsel dispatch, so the per-query timeout (and a vanished client)
// stops all executor workers promptly instead of letting an abandoned
// query burn CPU to completion. *geostore.Store implements it.
type ContextEngine interface {
	QueryContext(ctx context.Context, q *sparql.Query) (*sparql.Results, error)
}

// Loader is the optional live-ingestion capability behind POST /load:
// it streams N-Triples into the store (journaled when a WAL is
// attached) and returns the number of triples read. *geostore.Store
// implements it.
type Loader interface {
	LoadNTriples(r io.Reader) (int, error)
}

// Config tunes the serving layer. The zero value gets sensible defaults
// from New.
type Config struct {
	// MaxInFlight bounds concurrently evaluating queries; requests beyond
	// it receive 503 + Retry-After. Default 16.
	MaxInFlight int
	// QueryTimeout is the per-query evaluation deadline. Default 30s.
	QueryTimeout time.Duration
	// CacheSize is the result cache capacity in entries; 0 selects the
	// default of 256, negative disables caching.
	CacheSize int
	// MaxQueryLen bounds accepted query text bytes. Default 1 MiB.
	MaxQueryLen int
	// Loader, when non-nil together with a non-empty LoadToken, enables
	// the POST /load N-Triples ingestion route.
	Loader Loader
	// LoadToken is the bearer token POST /load requires. Ingestion stays
	// disabled (404) while it is empty, so a write path is never exposed
	// by accident.
	LoadToken string
	// Workers is the server-wide executor worker pool shared with the
	// engine (see rdf.NewWorkerPool and geostore's SetParallel): morsel
	// workers beyond each query's first must win a slot here, so
	// admission control bounds total executor goroutines — MaxInFlight
	// queries plus Workers.Cap() extra workers — not just concurrent
	// queries. Nil when parallel execution is off; /metrics exports the
	// pool's busy gauge as sparql_exec_workers_busy.
	Workers *rdf.WorkerPool
	// Logger, when non-nil, enables the structured access log: one line
	// per request carrying the request's trace ID (see ServeHTTP). The
	// same logger should be attached to the engine (geostore SetLogger)
	// so store-level lines correlate.
	Logger *slog.Logger
	// SlowQueryThreshold, when > 0, enables slow-query capture: uncached
	// queries run with EXPLAIN ANALYZE instrumentation, and any whose
	// evaluation exceeds the threshold (or times out) records its
	// profile in the bounded ring served by GET /debug/queries.
	SlowQueryThreshold time.Duration
	// DebugRingSize bounds the slow-query ring (default 64 entries).
	DebugRingSize int
	// Registry, when non-nil, is the telemetry registry /metrics serves.
	// eeserve passes the registry its storage metrics are already on, so
	// one scrape covers the whole process. Nil creates a private one.
	// Each registry supports at most one Server (family names collide).
	Registry *telemetry.Registry
	// StorageStats, when non-nil, supplies the durability-layer listing
	// GET /debug/store embeds under "storage" (eeserve passes a closure
	// over storage.DB.Stats). The value is marshaled as JSON verbatim.
	StorageStats func() any
	// Degraded, when non-nil, reports the storage layer's sticky failure
	// (eeserve passes a closure over storage.DB.Degraded). While it
	// returns non-nil the server keeps answering queries from memory but
	// refuses POST /load with 503 + Retry-After, and /healthz reports
	// status "degraded" with the cause.
	Degraded func() error
	// Replication, when non-nil, is the primary-side WAL-shipping
	// service mounted under /replication/ (the handler enforces its own
	// token auth). /healthz then reports role "primary".
	Replication http.Handler
	// Replica, when non-nil, marks this server a streaming read replica
	// and supplies its live status (eeserve passes a closure over
	// replication.Replica.Status). Query responses carry X-Replica-Lag,
	// /healthz reports role "replica" with the stream health, and lag
	// gating below applies.
	Replica func() ReplicaStatus
	// MaxReplicaLag is the staleness budget for a replica's answers:
	// once the replica has not been caught up for longer than this (or
	// its stream has parked on a sticky failure), responses degrade per
	// LagPolicy. 0 disables the lag threshold (sticky failures still
	// degrade).
	MaxReplicaLag time.Duration
	// LagPolicy selects what an over-budget replica does with queries:
	// LagPolicyWarn (default) answers them with a Warning header,
	// LagPolicyReject answers 503 + Retry-After so balancers move the
	// traffic to fresher nodes.
	LagPolicy string
	// ReadOnly, when non-empty, refuses POST /load with 403 and this
	// reason — replicas only apply writes from their primary's stream.
	ReadOnly string
}

// Lag-gating policies for replicas beyond MaxReplicaLag.
const (
	LagPolicyWarn   = "warn"
	LagPolicyReject = "reject"
)

// ReplicaStatus is the slice of a replica's health the serving layer
// consumes; the replication package's Status converts to it in eeserve.
type ReplicaStatus struct {
	// Primary is the upstream base URL.
	Primary string
	// Connected reports whether the WAL stream is currently open.
	Connected bool
	// LagBytes is the last observed durable-bytes-behind figure.
	LagBytes int64
	// LagSeconds is how long the replica has not been fully caught up.
	LagSeconds float64
	// Err is the sticky failure that parked replication, nil otherwise.
	Err error
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 16
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxQueryLen == 0 {
		c.MaxQueryLen = 1 << 20
	}
	if c.DebugRingSize <= 0 {
		c.DebugRingSize = 64
	}
	if c.LagPolicy != LagPolicyReject {
		c.LagPolicy = LagPolicyWarn
	}
	return c
}

// Server is the HTTP SPARQL endpoint. Create with New; it implements
// http.Handler.
type Server struct {
	engine  Engine
	cfg     Config
	cache   *resultCache
	sem     chan struct{}
	reg     *telemetry.Registry
	metrics metrics
	mux     *http.ServeMux

	logger  *slog.Logger
	started time.Time
	slow    *queryRing
	running *runningSet

	// storeMem caches the engine's memory accounting for one scrape; a
	// registry prepare hook refreshes it (see registerRuntimeMetrics).
	storeMem atomic.Pointer[telemetry.StoreMemory]
}

// New returns a server over engine.
func New(engine Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		engine:  engine,
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheSize),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		reg:     reg,
		mux:     http.NewServeMux(),
		logger:  cfg.Logger,
		started: time.Now(),
		slow:    newQueryRing(cfg.DebugRingSize),
		running: newRunningSet(),
	}
	s.metrics = newMetrics(reg)
	s.registerRuntimeMetrics()
	s.mux.HandleFunc("/sparql", s.recoverPanics(s.handleSPARQL))
	s.mux.HandleFunc("/load", s.recoverPanics(s.handleLoad))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	// The /debug/* routes expose query text and store internals, so the
	// public listener requires the load token; the admin mux (a separate,
	// non-public bind) serves them unauthenticated.
	s.mux.HandleFunc("/debug/queries", s.debugAuth(s.handleDebugQueries))
	s.mux.HandleFunc("/debug/store", s.debugAuth(s.handleDebugStore))
	s.mux.HandleFunc("/debug/cache", s.debugAuth(s.handleDebugCache))
	if cfg.Replication != nil {
		// The feed does its own (replication-token) auth and streaming;
		// it never shares the query semaphore — shipping must not compete
		// with queries for admission.
		s.mux.Handle("/replication/", cfg.Replication)
	}
	return s
}

// Registry returns the telemetry registry /metrics serves, so embedders
// can register process-level families on the same exposition.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// AdminMux returns an http.Handler serving the runtime introspection
// routes — net/http/pprof under /debug/pprof/ plus this server's
// /metrics, /debug/queries, /debug/store, and /debug/cache — for
// binding to a separate, non-public address (eeserve -pprof-addr).
// Unlike the public mux, the debug routes here skip token auth: the
// bind address is the access control.
func (s *Server) AdminMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/debug/store", s.handleDebugStore)
	mux.HandleFunc("/debug/cache", s.handleDebugCache)
	return mux
}

// handleLoad is the live ingestion route: an authenticated POST whose
// body is an N-Triples stream. Loaded triples advance the store
// version, so every cached result keyed on the old version stops being
// addressable the moment the load lands (the result cache needs no
// explicit flush).
func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ReadOnly != "" {
		// Replicas take writes only from their primary's stream; a 403
		// (not 404) tells the operator the route exists but this node is
		// the wrong place for it.
		http.Error(w, "read-only: "+s.cfg.ReadOnly, http.StatusForbidden)
		return
	}
	if s.cfg.Loader == nil || s.cfg.LoadToken == "" {
		http.Error(w, "ingestion not enabled", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorizedLoad(r) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="load"`)
		http.Error(w, "missing or invalid load token", http.StatusUnauthorized)
		return
	}
	// A degraded store is read-only: the WAL took a sticky failure, so
	// accepting triples would lose them on restart. Queries keep being
	// served; only this write path closes.
	if s.cfg.Degraded != nil {
		if derr := s.cfg.Degraded(); derr != nil {
			s.metrics.loadErrors.Add(1)
			w.Header().Set("Retry-After", "30")
			http.Error(w, fmt.Sprintf("store is degraded (read-only): %v; restart the server to recover", derr),
				http.StatusServiceUnavailable)
			return
		}
	}
	start := time.Now()
	n, err := s.cfg.Loader.LoadNTriples(r.Body)
	s.metrics.loadedTriples.Add(uint64(n))
	if err != nil {
		// Triples before the offending line are already in (and
		// journaled); report both the failure and the partial count.
		// A journal (disk) failure is the server's fault, not the
		// client's — distinguish 500 from 400 so monitoring does too.
		// Matching against the loader's sticky journal error (rather
		// than its mere presence) keeps a later client's parse error
		// from being blamed on an old server fault.
		s.metrics.loadErrors.Add(1)
		status := http.StatusBadRequest
		if je, ok := s.cfg.Loader.(interface{ JournalErr() error }); ok {
			if jerr := je.JournalErr(); jerr != nil && errors.Is(err, jerr) {
				status = http.StatusInternalServerError
			}
		}
		http.Error(w, fmt.Sprintf("load failed after %d triples: %v", n, err), status)
		return
	}
	s.metrics.loads.Add(1)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"loaded\":%d,\"triples\":%d,\"store_version\":%d,\"elapsed_ms\":%d}\n",
		n, s.engine.Len(), s.engine.Version(), time.Since(start).Milliseconds())
}

// admitReplicaQuery applies replica lag gating: every query response
// from a replica carries X-Replica-Lag (seconds), and once the replica
// is over its staleness budget — lag beyond MaxReplicaLag, or the
// stream parked on a sticky failure — the answer degrades per
// LagPolicy: a Warning header ("serve stale, say so", the default) or
// a 503 with Retry-After so balancers move on. Returns false when the
// request was rejected.
func (s *Server) admitReplicaQuery(w http.ResponseWriter) bool {
	if s.cfg.Replica == nil {
		return true
	}
	rs := s.cfg.Replica()
	w.Header().Set("X-Replica-Lag", strconv.FormatFloat(rs.LagSeconds, 'f', 3, 64))
	over := rs.Err != nil ||
		(s.cfg.MaxReplicaLag > 0 && rs.LagSeconds > s.cfg.MaxReplicaLag.Seconds())
	if !over {
		return true
	}
	if s.cfg.LagPolicy == LagPolicyReject {
		s.metrics.replicaRejected.Inc()
		w.Header().Set("Retry-After", "5")
		reason := fmt.Sprintf("replica is %.1fs behind its primary", rs.LagSeconds)
		if rs.Err != nil {
			reason = "replication is degraded: " + rs.Err.Error()
		}
		http.Error(w, reason+"; query the primary or another replica", http.StatusServiceUnavailable)
		return false
	}
	w.Header().Set("Warning", `199 - "replica results may be stale"`)
	return true
}

// authorizedLoad accepts the configured token via "Authorization:
// Bearer <token>" or an X-Load-Token header, compared in constant time.
func (s *Server) authorizedLoad(r *http.Request) bool {
	tok := ""
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		tok = strings.TrimSpace(strings.TrimPrefix(h, "Bearer "))
	}
	if tok == "" {
		tok = r.Header.Get("X-Load-Token")
	}
	return tok != "" && subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.LoadToken)) == 1
}

// queryText extracts the query string per the SPARQL Protocol: the
// `query` parameter on GET or form POST, or the raw body for
// application/sparql-query POSTs.
func (s *Server) queryText(r *http.Request) (string, error) {
	switch r.Method {
	case http.MethodGet:
		return r.URL.Query().Get("query"), nil
	case http.MethodPost:
		ct := strings.TrimSpace(strings.SplitN(r.Header.Get("Content-Type"), ";", 2)[0])
		if strings.EqualFold(ct, "application/sparql-query") {
			body, err := io.ReadAll(io.LimitReader(r.Body, int64(s.cfg.MaxQueryLen)+1))
			if err != nil {
				return "", err
			}
			if len(body) > s.cfg.MaxQueryLen {
				return "", fmt.Errorf("query exceeds %d bytes", s.cfg.MaxQueryLen)
			}
			return string(body), nil
		}
		return r.FormValue("query"), nil
	default:
		return "", fmt.Errorf("method %s not allowed", r.Method)
	}
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.admitReplicaQuery(w) {
		return
	}

	qs, err := s.queryText(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if strings.TrimSpace(qs) == "" {
		http.Error(w, "missing query parameter", http.StatusBadRequest)
		return
	}
	if len(qs) > s.cfg.MaxQueryLen {
		http.Error(w, fmt.Sprintf("query exceeds %d bytes", s.cfg.MaxQueryLen), http.StatusBadRequest)
		return
	}

	// Resolve the output format: an explicit format parameter (URL query
	// or form body — FormValue covers both) beats Accept negotiation.
	var format Format
	if fp := r.FormValue("format"); fp != "" {
		f, ok := ParseFormat(fp)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown format %q", fp), http.StatusBadRequest)
			return
		}
		format = f
	} else {
		f, ok := NegotiateFormat(r.Header.Get("Accept"))
		if !ok {
			http.Error(w, "no supported media type in Accept", http.StatusNotAcceptable)
			return
		}
		format = f
	}

	start := time.Now()
	q, err := sparql.Parse(qs)
	if err != nil {
		s.metrics.countError(errKindParse)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	geomVar := r.FormValue("geom")

	// ?analyze=1 (or the SPARQL-Analyze: 1 header) attaches the EXPLAIN
	// ANALYZE profile as a JSON sidecar; such requests bypass the result
	// cache because a cached body has no fresh execution to profile.
	analyze := r.FormValue("analyze") == "1" || r.Header.Get("SPARQL-Analyze") == "1"

	// The key uses the full canonical text rather than its hash: exact,
	// and the cacheKey is a string anyway.
	key := cacheKey{query: q.Canonical() + "\x00" + geomVar, version: s.engine.Version(), format: format}
	if !analyze {
		if entry, ok := s.cache.get(key); ok {
			s.metrics.cacheHits.Add(1)
			s.finish(w, format, entry.body, true, start)
			return
		}
	}

	// Admission control guards the expensive part — evaluation. Reject
	// rather than queue when saturated, so overload sheds load instead of
	// stacking latency. The slot is released when evaluation completes,
	// even if the request has already timed out, so abandoned queries
	// still count against MaxInFlight while they burn CPU.
	select {
	case s.sem <- struct{}{}:
	default:
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server at capacity", http.StatusServiceUnavailable)
		return
	}
	if !analyze {
		s.metrics.cacheMisses.Add(1)
	}

	// Slow-query capture needs a profile for any query that might turn
	// out slow, so when the threshold is set every evaluated query runs
	// instrumented (the enabled-path cost; the disabled path stays free).
	evalStart := time.Now()
	res, prof, err := s.evalWithTimeout(r.Context(), q, analyze || s.cfg.SlowQueryThreshold > 0)
	evalElapsed := time.Since(evalStart)
	if err != nil {
		switch err {
		case context.DeadlineExceeded:
			s.metrics.timeouts.Add(1)
			s.recordSlow(r.Context(), q, "timeout", evalStart, evalElapsed, 0, nil)
			http.Error(w, "query timed out", http.StatusGatewayTimeout)
		case context.Canceled:
			// Client went away mid-evaluation; nobody is listening, and it
			// was not a server-side deadline, so don't count it as one.
		default:
			var pe *panicError
			if errors.As(err, &pe) {
				// The engine panicked inside the evaluation goroutine; the
				// recover happened there (a handler-level recover cannot
				// reach another goroutine) and the panic arrived here as an
				// error. The panic value never leaks to the client — only
				// the request ID, which correlates with the logged stack.
				s.serverError(w, r, pe)
				return
			}
			s.metrics.countError(errKindEval)
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}
	s.metrics.execRows.Add(uint64(res.Len()))
	if prof != nil {
		s.metrics.filterDrops.Add(uint64(prof.TotalFilterDrops()))
		s.recordSlow(r.Context(), q, "slow", evalStart, evalElapsed, res.Len(), prof)
	}

	if analyze {
		s.writeAnalyzed(w, res, prof, start)
		return
	}
	body, err := appendResults(nil, format, res, geomVar)
	if err != nil {
		s.metrics.countError(errKindSerialize)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.cache.put(key, body, res.Len())
	s.finish(w, format, body, false, start)
}

// writeAnalyzed writes the ?analyze=1 response: a JSON envelope with
// the execution profile and the SPARQL JSON results side by side.
func (s *Server) writeAnalyzed(w http.ResponseWriter, res *sparql.Results, prof *sparql.Profile, start time.Time) {
	env := struct {
		Profile *sparql.Profile `json:"profile"`
		Results json.RawMessage `json:"results"`
	}{Profile: prof, Results: appendSPARQLJSON(nil, res)}
	body, err := json.Marshal(env)
	if err != nil {
		s.metrics.countError(errKindSerialize)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.metrics.queries.Add(1)
	s.metrics.observe(time.Since(start))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "BYPASS")
	w.Write(append(body, '\n'))
}

// finish writes a successful response body and records metrics.
func (s *Server) finish(w http.ResponseWriter, format Format, body []byte, hit bool, start time.Time) {
	s.metrics.queries.Add(1)
	s.metrics.observe(time.Since(start))
	w.Header().Set("Content-Type", format.ContentType())
	if hit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	w.Write(body)
}

// panicError carries a recovered panic out of the evaluation goroutine
// as an ordinary error.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// recoverPanics wraps a handler so a panic in it answers 500 (with the
// request ID for log correlation) instead of killing the connection —
// and, since http.Server would only recover per-connection anyway,
// keeps the behavior uniform with the evaluation-goroutine recovery,
// where a panic would otherwise crash the whole process.
func (s *Server) recoverPanics(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.serverError(w, r, &panicError{val: p, stack: debug.Stack()})
			}
		}()
		h(w, r)
	}
}

// serverError reports a recovered panic: counts it under
// sparql_query_errors_total{kind="panic"}, logs the stack with the
// request ID, and answers 500 carrying only the request ID.
func (s *Server) serverError(w http.ResponseWriter, r *http.Request, pe *panicError) {
	s.metrics.countError(errKindPanic)
	rid := w.Header().Get("X-Request-ID")
	if s.logger != nil {
		s.logger.Error("panic serving request",
			"request_id", rid, "path", r.URL.Path,
			"panic", fmt.Sprint(pe.val), "stack", string(pe.stack))
	}
	// If the handler already streamed a response body this write is a
	// no-op on the status line; the client sees a truncated body, which
	// is the best an HTTP/1 server can do mid-stream.
	http.Error(w, fmt.Sprintf("internal server error (request %s)", rid), http.StatusInternalServerError)
}

// evalWithTimeout evaluates q, abandoning the wait when the per-query
// deadline or the client connection expires. Engines implementing
// ContextEngine receive the deadline context and stop their executor
// workers promptly on expiry; plain Engine evaluation is not
// preemptible, so a timed-out query finishes in the background. Either
// way the admission slot is held until evaluation actually ends, which
// is what bounds runaway load. The caller must have acquired s.sem.
func (s *Server) evalWithTimeout(ctx context.Context, q *sparql.Query, analyze bool) (*sparql.Results, *sparql.Profile, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.QueryTimeout)
	defer cancel()
	type evalResult struct {
		res  *sparql.Results
		prof *sparql.Profile
		err  error
	}
	ch := make(chan evalResult, 1)
	go func() {
		defer func() { <-s.sem }()
		// Register in the running-query set for the goroutine's whole
		// lifetime: a query whose client timed out keeps showing in
		// /debug/queries while its executor drains.
		rid := s.running.add(sparql.RequestIDFrom(ctx), q)
		defer s.running.remove(rid)
		var res *sparql.Results
		var prof *sparql.Profile
		var err error
		// Evaluation runs on this goroutine, out of reach of any
		// handler-level recover: a panicking engine would kill the whole
		// process. Recover here and deliver the panic as an error.
		func() {
			defer func() {
				if p := recover(); p != nil {
					err = &panicError{val: p, stack: debug.Stack()}
				}
			}()
			if ae, ok := s.engine.(AnalyzeEngine); ok && analyze {
				res, prof, err = ae.QueryAnalyze(ctx, q)
			} else if ce, ok := s.engine.(ContextEngine); ok {
				// A timed-out engine reports ctx.Err() itself, which the
				// handler's error switch already maps to 504.
				res, err = ce.QueryContext(ctx, q)
			} else {
				res, err = s.engine.Query(q)
			}
		}()
		ch <- evalResult{res, prof, err}
	}()
	select {
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case ev := <-ch:
		return ev.res, ev.prof, ev.err
	}
}
