// Command eeserve runs the SPARQL Protocol endpoint over the
// re-engineered geostore: it loads a workload (synthetic features and/or
// an N-Triples file), then serves GET/POST /sparql with content-negotiated
// results plus /metrics and /healthz. With -data-dir it becomes durable:
// boot loads the latest snapshot and replays the WAL tail, every write
// is journaled, and a background trigger compacts the WAL into fresh
// snapshots. With -load-token it additionally accepts live N-Triples
// ingestion on POST /load.
//
// Usage:
//
//	eeserve -addr :8080 -n 100000
//	eeserve -load data.nt -n 0
//	eeserve -data-dir /var/lib/eeserve -load-token s3cret
//	eeserve -query-workers 8            # morsel-parallel execution: up to 8
//	                                    # workers per query, and at most 8
//	                                    # extra executor goroutines in total
//	eeserve -log-format json            # structured access log (one line
//	                                    # per request, with X-Request-ID)
//	eeserve -slow-query-threshold 100ms # capture EXPLAIN ANALYZE profiles
//	                                    # of slow queries at /debug/queries
//	eeserve -pprof-addr localhost:6060  # admin mux: net/http/pprof +
//	                                    # /metrics + /debug/{queries,store,cache}
//
// Replication (requires -data-dir on both sides):
//
//	eeserve -data-dir /var/lib/primary -replication-token s3cret
//	                                    # primary: bumps the epoch fence and
//	                                    # serves /replication/{wal,snapshot}
//	eeserve -data-dir /var/lib/replica -replica-of http://primary:8080 \
//	        -replication-token s3cret -max-replica-lag 30s
//	                                    # read-only replica: bootstraps from
//	                                    # the primary's snapshot, streams its
//	                                    # WAL, serves queries with lag gating
//
// Example queries:
//
//	curl 'localhost:8080/sparql?query=SELECT+?f+WHERE+{+?f+a+ee:Feature+}+LIMIT+3'
//	curl -H 'Accept: text/csv' --data-urlencode 'query=...' localhost:8080/sparql
//	curl -X POST -H 'Authorization: Bearer s3cret' --data-binary @more.nt localhost:8080/load
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/endpoint"
	"repro/internal/geom"
	"repro/internal/geostore"
	"repro/internal/rdf"
	"repro/internal/replication"
	"repro/internal/retry"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eeserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eeserve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	addr := fs.String("addr", ":8080", "listen address")
	n := fs.Int("n", 10000, "synthetic point features to load (0 for none)")
	seed := fs.Int64("seed", 42, "workload seed")
	load := fs.String("load", "", "N-Triples file to load")
	cacheSize := fs.Int("cache", 256, "result cache entries (negative disables)")
	maxInFlight := fs.Int("max-inflight", 16, "max concurrently evaluating queries")
	timeout := fs.Duration("timeout", 30*time.Second, "per-query timeout")
	dataDir := fs.String("data-dir", "", "durable storage directory (WAL + snapshots); empty = ephemeral")
	loadToken := fs.String("load-token", "", "bearer token enabling POST /load ingestion (empty disables)")
	snapshotEvery := fs.Int("snapshot-every", 100000, "journaled triples that trigger a background snapshot (0 disables)")
	walSyncEvery := fs.Int("wal-sync-every", 8, "WAL commits between fsyncs (group commit; 1 = sync every commit)")
	queryWorkers := fs.Int("query-workers", 0,
		"morsel-driven executor workers: per-query degree and the server-wide cap on extra executor goroutines (0 disables parallel execution)")
	logFormat := fs.String("log-format", "", "structured access log format: text, json or empty (no access log)")
	slowThreshold := fs.Duration("slow-query-threshold", 0, "capture EXPLAIN ANALYZE profiles of queries slower than this at /debug/queries (0 disables)")
	pprofAddr := fs.String("pprof-addr", "", "listen address for the admin mux (net/http/pprof, /metrics, /debug/queries); empty disables")
	replicaOf := fs.String("replica-of", "", "primary base URL to replicate from; turns this node into a read-only streaming replica (requires -data-dir and -replication-token)")
	replToken := fs.String("replication-token", "", "shared secret for /replication endpoints; on a primary with -data-dir it enables WAL shipping, on a replica it authenticates to the primary")
	maxReplicaLag := fs.Duration("max-replica-lag", 0, "replica staleness budget; queries on a replica lagging beyond this trigger -replica-lag-policy (0 = serve any lag silently)")
	lagPolicy := fs.String("replica-lag-policy", "warn", "what an over-budget replica does with queries: warn (serve with a Warning header) or reject (503 + Retry-After)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("usage: %w", err)
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *lagPolicy != endpoint.LagPolicyWarn && *lagPolicy != endpoint.LagPolicyReject {
		fs.Usage()
		return fmt.Errorf("unknown replica lag policy %q (want warn or reject)", *lagPolicy)
	}
	isReplica := *replicaOf != ""
	if isReplica {
		if *dataDir == "" || *replToken == "" {
			return fmt.Errorf("-replica-of requires -data-dir and -replication-token")
		}
		if *load != "" || *loadToken != "" {
			return fmt.Errorf("a replica is read-only; drop -load/-load-token and ingest on the primary")
		}
		// The stream is a replica's only data source: local synthetic
		// loads would fork its state from the primary's.
		*n = 0
	}

	var logger *slog.Logger
	switch *logFormat {
	case "":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fs.Usage()
		return fmt.Errorf("unknown log format %q", *logFormat)
	}
	// Boot events always log; -log-format picks their encoding (the
	// access log stays opt-in). JSON keeps machine-parsed boot reports —
	// notably the recovery timeline — on one self-describing line.
	boot := logger
	if boot == nil {
		boot = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	// One registry for the whole process: endpoint counters, storage
	// durability metrics, and store memory gauges share the /metrics
	// exposition.
	reg := telemetry.NewRegistry()

	extent := geom.NewRect(0, 0, 10000, 10000)
	var db *storage.DB
	// One server-wide pool bounds executor goroutines across concurrent
	// queries: admission control caps queries, the pool caps the extra
	// workers those queries may fan out to.
	var pool *rdf.WorkerPool
	if *queryWorkers >= 2 {
		pool = rdf.NewWorkerPool(*queryWorkers)
	}
	var feed *replication.Feed
	var rep *replication.Replica
	st := geostore.New(geostore.ModeIndexed)
	if pool != nil {
		st.SetParallel(*queryWorkers, pool)
	}
	st.SetLogger(logger)

	if *dataDir != "" {
		if isReplica {
			// A fresh replica seeds its directory from the primary's
			// newest snapshot before opening storage, so Recover below
			// boots from exactly the primary's compacted prefix.
			fetched, err := replication.Bootstrap(nil, *replicaOf, *replToken, nil, *dataDir)
			if err != nil {
				return fmt.Errorf("replica bootstrap: %w", err)
			}
			if fetched {
				boot.Info("replica bootstrapped from primary snapshot",
					slog.String("primary", *replicaOf), slog.String("dir", *dataDir))
			}
		}
		var err error
		db, err = storage.Open(*dataDir, storage.Options{SyncEvery: *walSyncEvery, Metrics: storage.NewMetrics(reg)})
		if err != nil {
			return err
		}
		stats, err := db.Recover(st.RDF())
		if err != nil {
			return err
		}
		if err := st.RestoreGeometries(); err != nil {
			return err
		}
		// The recovery timeline (phase durations, torn-tail and corrupt
		// segment accounting) logs as one structured group.
		boot.Info("recovered", slog.String("dir", *dataDir), slog.Any("recovery", stats))
		// Attach the journal only now, so replayed triples were not
		// re-journaled; everything below is durable.
		st.RDF().SetJournal(db.Log())
	}

	// Synthetic and file loads are idempotent against a recovered
	// directory: already-present triples deduplicate and are not
	// re-journaled.
	for _, f := range geostore.GeneratePointFeatures(*n, *seed, extent) {
		if err := st.AddFeature(f); err != nil {
			return err
		}
	}
	if *load != "" {
		if err := loadNTriplesFile(st, *load); err != nil {
			return err
		}
	}
	if err := st.RDF().CommitJournal(); err != nil {
		return err
	}
	st.Build()

	if db != nil {
		if db.SinceSnapshot() > 0 {
			// Boot-time loads went to the WAL only; compact them away.
			if path, err := db.Snapshot(st.RDF()); err != nil {
				return err
			} else {
				boot.Info("boot snapshot", slog.String("path", path))
			}
		}
		switch {
		case isReplica:
			r, rerr := replication.NewReplica(replication.ReplicaConfig{
				PrimaryURL: *replicaOf,
				Token:      *replToken,
				Store:      st,
				DB:         db,
				Metrics:    replication.NewMetrics(reg),
				Logger:     boot,
			})
			if rerr != nil {
				return rerr
			}
			rep = r
			go rep.Run()
		case *replToken != "":
			// Every primary incarnation takes a fresh epoch before
			// serving, so a revived predecessor's frames are fenced off
			// by replicas (no split-brain).
			epoch, eerr := db.BumpEpoch()
			if eerr != nil {
				return eerr
			}
			feed = replication.NewFeed(replication.FeedConfig{
				DB:      db,
				Token:   *replToken,
				Metrics: replication.NewMetrics(reg),
				Logger:  boot,
			})
			boot.Info("replication feed enabled", slog.Uint64("epoch", epoch))
		}
		if *snapshotEvery > 0 {
			go snapshotLoop(db, st, *snapshotEvery, boot)
		}
		shutdownOnSignal(db, feed, rep, boot)
	}

	cfg := endpoint.Config{
		MaxInFlight:        *maxInFlight,
		QueryTimeout:       *timeout,
		CacheSize:          *cacheSize,
		Loader:             st,
		LoadToken:          *loadToken,
		Workers:            pool,
		Logger:             logger,
		SlowQueryThreshold: *slowThreshold,
		Registry:           reg,
	}
	if db != nil {
		// GET /debug/store embeds the live WAL/snapshot listing.
		cfg.StorageStats = func() any {
			stats, err := db.Stats()
			if err != nil {
				return map[string]string{"error": err.Error()}
			}
			return stats
		}
		// After a sticky WAL failure the endpoint keeps serving queries
		// but refuses ingestion and reports degraded health.
		cfg.Degraded = db.Degraded
	}
	if feed != nil {
		cfg.Replication = feed
	}
	if rep != nil {
		cfg.Replica = func() endpoint.ReplicaStatus {
			rs := rep.Status()
			return endpoint.ReplicaStatus{
				Primary:    rs.Primary,
				Connected:  rs.Connected,
				LagBytes:   rs.LagBytes,
				LagSeconds: rs.LagSeconds,
				Err:        rs.Err,
			}
		}
		cfg.MaxReplicaLag = *maxReplicaLag
		cfg.LagPolicy = *lagPolicy
		cfg.ReadOnly = "this node replicates " + *replicaOf + "; ingest on the primary"
	}
	srv := endpoint.New(st, cfg)
	if *pprofAddr != "" {
		// The admin mux (pprof, metrics, debug routes) binds separately so
		// profiling endpoints are never exposed on the public address.
		go func() {
			boot.Info("admin mux listening", slog.String("addr", *pprofAddr),
				slog.String("routes", "/debug/pprof/, /metrics, /debug/queries, /debug/store, /debug/cache"))
			if err := http.ListenAndServe(*pprofAddr, srv.AdminMux()); err != nil {
				fmt.Fprintln(os.Stderr, "eeserve: admin mux:", err)
			}
		}()
	}
	durable := "ephemeral"
	if db != nil {
		durable = "durable:" + *dataDir
	}
	role := "standalone"
	switch {
	case rep != nil:
		role = "replica:" + *replicaOf
	case feed != nil:
		role = "primary"
	}
	boot.Info("listening", slog.String("addr", *addr),
		slog.Int("triples", st.Len()),
		slog.Uint64("store_version", st.Version()),
		slog.String("storage", durable),
		slog.String("role", role))
	return http.ListenAndServe(*addr, srv)
}

// loadNTriplesFile streams an N-Triples file into the store (journaled
// when a WAL is attached).
func loadNTriplesFile(st *geostore.Store, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := st.LoadNTriples(f)
	if err != nil {
		return fmt.Errorf("%s: after %d triples: %w", path, n, err)
	}
	fmt.Printf("eeserve: loaded %d triples from %s\n", n, path)
	return nil
}

// snapshotLoop periodically compacts the WAL into a fresh snapshot once
// enough triples have been journaled since the last one. Snapshot
// failures (a full disk, most likely) back off exponentially with
// jitter via retry.Backoff instead of retrying at the full poll rate:
// each failed attempt rewrites the entire store to disk, so hammering
// a sick disk every five seconds makes the outage worse. The first
// retry waits 2× the poll interval (the historical spacing), doubling
// up to snapshotBackoffCap, and the backoff resets on success.
const (
	snapshotPollInterval = 5 * time.Second
	snapshotBackoffCap   = 5 * time.Minute
)

func snapshotLoop(db *storage.DB, st *geostore.Store, every int, log *slog.Logger) {
	bo := retry.Backoff{Base: 2 * snapshotPollInterval, Cap: snapshotBackoffCap, Jitter: 0.2}
	delay := snapshotPollInterval
	for {
		time.Sleep(delay)
		if err := st.RDF().JournalErr(); err != nil {
			log.Error("journal failed, snapshots suspended", slog.Any("err", err))
			return
		}
		if db.SinceSnapshot() < uint64(every) {
			delay = snapshotPollInterval
			continue
		}
		start := time.Now()
		path, err := db.Snapshot(st.RDF())
		if err != nil {
			delay = bo.Next()
			log.Error("background snapshot failed", slog.Any("err", err),
				slog.Duration("retry_in", delay.Round(time.Second)))
			continue
		}
		bo.Reset()
		delay = snapshotPollInterval
		log.Info("snapshot", slog.String("path", path),
			slog.Duration("elapsed", time.Since(start).Round(time.Millisecond)))
	}
}

// shutdownOnSignal runs the orderly stop on SIGINT/SIGTERM: the feed
// (if primary) seals its streams so replicas persist their cursors and
// resume after the restart, the replica applier (if replica) stops and
// persists its position, and finally the WAL flushes and closes so the
// last group-commit window is not lost. This ordering is what makes a
// rolling restart of either role resume mid-stream instead of forcing
// a re-bootstrap.
func shutdownOnSignal(db *storage.DB, feed *replication.Feed, rep *replication.Replica, log *slog.Logger) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		log.Info("shutting down, sealing WAL")
		if feed != nil {
			feed.Close()
		}
		if rep != nil {
			rep.Stop()
		}
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "eeserve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()
}
