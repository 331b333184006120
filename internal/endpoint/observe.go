package endpoint

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/sparql"
)

// This file is the endpoint's observability surface: request-ID
// assignment and propagation (X-Request-ID in, through context, out),
// the slog access log, the bounded slow-query ring behind
// GET /debug/queries, and the registry of currently running queries.

// AnalyzeEngine is the optional EXPLAIN ANALYZE capability of an
// Engine: evaluation with executor stats collection, returning the
// per-step profile alongside the results. *geostore.Store implements
// it. Engines without it still serve ?analyze=1 requests,
// with a null profile.
type AnalyzeEngine interface {
	QueryAnalyze(ctx context.Context, q *sparql.Query) (*sparql.Results, *sparql.Profile, error)
}

// newRequestID returns a fresh 16-hex-char trace ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// fixed marker rather than panicking in the serving path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the response status and size for the access
// log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// ServeHTTP implements http.Handler: every request gets (or keeps) an
// X-Request-ID, echoed on the response and carried through the request
// context into the engine, and — when a logger is configured — one
// structured access-log line records the outcome under that ID.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(sparql.WithRequestID(r.Context(), id))
	if s.logger == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("request_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.status),
		slog.Int64("bytes", rec.bytes),
		slog.Duration("duration", time.Since(start)))
}

// slowQuery is one captured slow (or timed-out) query.
type slowQuery struct {
	RequestID   string          `json:"request_id,omitempty"`
	Fingerprint string          `json:"fingerprint"`
	Query       string          `json:"query"`
	Status      string          `json:"status"` // "slow" or "timeout"
	StartedAt   time.Time       `json:"started_at"`
	DurationMs  float64         `json:"duration_ms"`
	Rows        int             `json:"rows"`
	Profile     *sparql.Profile `json:"profile,omitempty"`
}

// queryRing is the bounded in-memory buffer of recent slow queries.
type queryRing struct {
	mu      sync.Mutex
	entries []slowQuery
	next    int
	filled  bool
}

func newQueryRing(n int) *queryRing {
	if n < 1 {
		n = 1
	}
	return &queryRing{entries: make([]slowQuery, n)}
}

func (r *queryRing) record(e slowQuery) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[r.next] = e
	r.next++
	if r.next == len(r.entries) {
		r.next, r.filled = 0, true
	}
}

// snapshot returns the captured queries, newest first.
func (r *queryRing) snapshot() []slowQuery {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.entries)
	}
	out := make([]slowQuery, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.entries[(r.next-i+len(r.entries))%len(r.entries)])
	}
	return out
}

// runningQuery is one query currently evaluating.
type runningQuery struct {
	ID          uint64    `json:"id"`
	RequestID   string    `json:"request_id,omitempty"`
	Fingerprint string    `json:"fingerprint"`
	Query       string    `json:"query"`
	StartedAt   time.Time `json:"started_at"`
}

// runningSet tracks in-flight evaluations (including ones whose client
// already timed out but whose executor is still draining).
type runningSet struct {
	mu  sync.Mutex
	seq uint64
	m   map[uint64]runningQuery
}

func newRunningSet() *runningSet {
	return &runningSet{m: make(map[uint64]runningQuery)}
}

func (s *runningSet) add(requestID string, q *sparql.Query) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	s.m[s.seq] = runningQuery{
		ID:          s.seq,
		RequestID:   requestID,
		Fingerprint: q.Fingerprint(),
		Query:       q.Canonical(),
		StartedAt:   time.Now(),
	}
	return s.seq
}

func (s *runningSet) remove(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, id)
}

// snapshot returns the running queries, oldest first.
func (s *runningSet) snapshot() []runningQuery {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]runningQuery, 0, len(s.m))
	for _, q := range s.m {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleDebugQueries serves the slow-query ring and the currently
// running queries as JSON.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	out := struct {
		SlowThresholdMs float64        `json:"slow_query_threshold_ms"`
		Running         []runningQuery `json:"running"`
		Recent          []slowQuery    `json:"recent"`
	}{
		SlowThresholdMs: float64(s.cfg.SlowQueryThreshold) / float64(time.Millisecond),
		Running:         s.running.snapshot(),
		Recent:          s.slow.snapshot(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// recordSlow captures a completed (or timed-out) query into the ring
// when slow-query capture is enabled and the evaluation exceeded the
// threshold.
func (s *Server) recordSlow(ctx context.Context, q *sparql.Query, status string, started time.Time, elapsed time.Duration, rows int, prof *sparql.Profile) {
	if s.cfg.SlowQueryThreshold <= 0 || elapsed < s.cfg.SlowQueryThreshold {
		return
	}
	s.metrics.slowQueries.Add(1)
	s.slow.record(slowQuery{
		RequestID:   sparql.RequestIDFrom(ctx),
		Fingerprint: q.Fingerprint(),
		Query:       q.Canonical(),
		Status:      status,
		StartedAt:   started,
		DurationMs:  float64(elapsed) / float64(time.Millisecond),
		Rows:        rows,
		Profile:     prof,
	})
}
