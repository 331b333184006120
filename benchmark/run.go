package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

const (
	// setups and restarts are how often one run repeats the whole set-up
	// and the SIGKILL-and-restart; setup_s and restart_s are medians, so
	// one slow boot does not decide them.
	setups   = 3
	restarts = 3
	// verifyQueries is how many full result sets the oracle checks before
	// and again after the timed phases.
	verifyQueries = 50

	// Ingest shape. Every run journals fewer triples than eeserve's
	// -snapshot-every default (100 000), so no time-triggered background
	// snapshot can land in one run and not in the next.
	phaseBatchFeatures = 334 // ≈ 2 000 triples, posted while queries run
	burstBatches       = 16  // back-to-back, no reader: ingest capacity
	burstBatchFeatures = 834 // ≈ 5 000 triples
)

// config is one run's inputs. Only workload, seed, seconds and trace are
// the user's; the rest is where things live.
type config struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	eeserve  string // built eeserve binary
	workDir  string // N-Triples file and data dirs; removed after the run
	outDir   string // server logs and trace files; kept
}

// phaseDurations splits the measured seconds into warm-up, closed phase
// and open phase in the workload's proportion.
func (c *config) phaseDurations() (warm, closed, open time.Duration) {
	u := c.workload.units
	unit := time.Duration(c.seconds * float64(time.Second) / float64(u[0]+u[1]+u[2]))
	return time.Duration(u[0]) * unit, time.Duration(u[1]) * unit, time.Duration(u[2]) * unit
}

// report is what one run measured.
type report struct {
	attempted, failed int
	openSamples       int
	metrics           map[string]float64
	datasetSHA256     string
	scheduleSHA256    string
	errs              []string
}

// instance is one running eeserve and the client that talks to it.
type instance struct {
	srv *server
	cl  *client
}

func boot(cfg *config, logPath string, args ...string) (*instance, health, error) {
	srv, err := startServer(cfg.eeserve, logPath, args...)
	if err != nil {
		return nil, health{}, err
	}
	in := &instance{srv: srv, cl: newClient(srv.addr, loadToken)}
	h, err := srv.waitReady(in.cl, 2*time.Minute)
	if err != nil {
		in.stop()
		return nil, health{}, err
	}
	return in, h, nil
}

func (in *instance) stop() {
	in.cl.close()
	in.srv.stop()
}

// run executes one workload once: set-up, oracle check, warm-up, closed
// phase, open phase, ingest burst, SIGKILL and restart, oracle check. A
// wrong answer is an error; a failed request is counted.
func run(cfg *config) (*report, error) {
	w := cfg.workload
	rep := &report{metrics: map[string]float64{}}
	m := rep.metrics
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	ntPath := filepath.Join(cfg.workDir, "cop.nt")
	dataDir := filepath.Join(cfg.workDir, "data")
	logPath := filepath.Join(cfg.outDir, "eeserve-"+w.name+".log")
	_ = os.Remove(logPath) // one log per run; absent on the first
	bootArgs := []string{"-n", "0", "-data-dir", dataDir, "-load-token", loadToken}
	if w.queryWorkers > 0 {
		bootArgs = append(bootArgs, "-query-workers", strconv.Itoa(w.queryWorkers))
	}
	warmDur, closedDur, openDur := cfg.phaseDurations()

	// Set-up, several times over: generate the dataset and every schedule
	// from the seed, write the N-Triples file, boot eeserve on it and wait
	// for its first 200 /healthz. The last instance serves the run.
	var (
		ds         *dataset
		gen        *generator
		sched      *schedule
		phaseLoads []*ingestBatch
		burst      []*ingestBatch
		in         *instance
		setupTimes []time.Duration
	)
	defer func() {
		if in != nil {
			in.stop()
		}
	}()
	for i := 0; i < setups; i++ {
		if in != nil {
			in.stop()
			in = nil
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		start := time.Now()
		ds = generateDataset(cfg.seed, cfg.scale)
		sha, err := ds.writeFile(ntPath)
		if err != nil {
			return nil, err
		}
		rep.datasetSHA256 = sha
		gen = newGenerator(w, cfg.seed)
		sched = gen.openSchedule(openDur)
		if w.writer {
			phaseLoads = generateBatches(cfg.seed, streamPhaseLoads, len(ds.points), w.openWindows, phaseBatchFeatures)
		}
		burst = generateBatches(cfg.seed, streamBurstLoads, len(ds.points)+len(phaseLoads)*phaseBatchFeatures, burstBatches, burstBatchFeatures)
		var h health
		in, h, err = boot(cfg, logPath, append([]string{"-load", ntPath}, bootArgs...)...)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start))
		if h.Triples != ds.triples {
			return nil, fmt.Errorf("eeserve holds %d triples after loading %s, want %d", h.Triples, ntPath, ds.triples)
		}
	}
	m["setup_s"] = medianDuration(setupTimes).Seconds()
	rep.scheduleSHA256 = sched.sha256()

	orc := newOracle(ds)
	total := &phaseResult{}
	if err := verify(in.cl, gen, orc, streamVerifyBefore, total); err != nil {
		return nil, fmt.Errorf("oracle, before the timed phases: %w", err)
	}
	_, walBefore, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	booted, err := in.cl.scrape()
	if err != nil {
		return nil, err
	}

	// Warm-up: window-hot first touches every tile once, so its working
	// set is resident and every timed request is a hit; then each
	// workload runs its own traffic for a moment.
	if w.wantCache == "HIT" {
		for i := range gen.tiles {
			total.attempted++
			if _, err := in.cl.query(&gen.tiles[i], "", io.Discard); err != nil {
				total.fail(err)
			}
		}
	}
	total.merge(in.cl.run(phase{readers: w.readers(), dur: warmDur,
		next: func(i int) query { return gen.op(streamWarm, i) }}, ""))
	warmed, err := in.cl.scrape()
	if err != nil {
		return nil, err
	}

	// Closed phase: every connection sends back-to-back. Its throughput
	// stands in for the highest sustainable rate.
	cpu0, err := procCPU(in.srv.pid())
	if err != nil {
		return nil, err
	}
	closed := in.cl.run(phase{readers: w.readers(), dur: closedDur,
		next: func(i int) query { return gen.op(streamClosed, i) }}, w.wantCache)
	total.merge(closed)
	cpu1, err := procCPU(in.srv.pid())
	if err != nil {
		return nil, err
	}

	// Open phase: the fixed-rate schedule, timed from each due instant,
	// with the writer's loads where the schedule put them.
	var openLoads []timedLoad
	for i, b := range phaseLoads {
		openLoads = append(openLoads, timedLoad{offset: sched.loadAt[i], batch: b})
	}
	open := in.cl.run(phase{readers: w.readers(), sched: sched, loads: openLoads}, w.wantCache)
	total.merge(open)
	cpu2, err := procCPU(in.srv.pid())
	if err != nil {
		return nil, err
	}
	timed, err := in.cl.scrape()
	if err != nil {
		return nil, err
	}

	// Ingest burst: one connection posts batches back-to-back with no
	// reader, then every batch's marker must be readable.
	burstRes := &phaseResult{}
	var batchRates []float64 // triples per second, one per acknowledged batch
	for _, b := range burst {
		burstRes.attempted++
		start := time.Now()
		if err := in.cl.load(b); err != nil {
			burstRes.fail(err)
			continue
		}
		batchRates = append(batchRates, float64(b.triples())/time.Since(start).Seconds())
		burstRes.acked = append(burstRes.acked, b)
	}
	if len(batchRates) == 0 {
		return nil, fmt.Errorf("ingest burst: no batch was acknowledged: %v", burstRes.errs)
	}
	for _, b := range burstRes.acked {
		in.cl.probeMarker(b, burstRes)
	}
	total.merge(burstRes)
	liveTriples := ds.triples
	for _, b := range total.acked {
		orc.acknowledge(b)
		liveTriples += b.triples()
	}
	loaded, err := in.cl.scrape()
	if err != nil {
		return nil, err
	}
	hwmKB, err := peakRSSKB(in.srv.pid())
	if err != nil {
		return nil, err
	}
	diskBytes, walAfter, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}

	// SIGKILL and restart on the same data dir, several times for the
	// median: every acknowledged triple must be back every time.
	var restartTimes []time.Duration
	for i := 0; i < restarts; i++ {
		in.stop()
		in = nil
		start := time.Now()
		var h health
		in, h, err = boot(cfg, logPath, bootArgs...)
		if err != nil {
			return nil, err
		}
		restartTimes = append(restartTimes, time.Since(start))
		if h.Triples != liveTriples {
			return nil, fmt.Errorf("after SIGKILL and restart eeserve holds %d triples, want %d (base %d + acknowledged %d)",
				h.Triples, liveTriples, ds.triples, liveTriples-ds.triples)
		}
	}
	if err := verify(in.cl, gen, orc, streamVerifyAfter, total); err != nil {
		return nil, fmt.Errorf("oracle, after restart: %w", err)
	}
	if n := len(total.acked); n > 0 {
		in.cl.probeMarker(total.acked[n-1], total)
	}
	restarted, err := in.cl.scrape()
	if err != nil {
		return nil, err
	}
	in.stop()
	in = nil

	if total.wrong > 0 {
		return nil, fmt.Errorf("%d wrong answers: %v", total.wrong, total.errs)
	}
	rep.attempted, rep.failed, rep.errs = total.attempted, total.failed, total.errs
	rep.openSamples = len(open.samples)

	// End-to-end metrics. Throughput comes from the closed phase; a
	// workload without one reports what its open phase completed, its
	// goodput at the fixed rate.
	closedOK, closedBytes := closed.succeeded()
	openOK, openBytes := open.succeeded()
	tpQueries, tpWall, tpCPU := closedOK, closed.wall, cpu1-cpu0
	if closedDur == 0 {
		tpQueries, tpWall, tpCPU = openOK, open.wall, cpu2-cpu1
	}
	p50, p99 := windowedPercentiles(open.samples, openDur, w.openWindows)
	sort.Float64s(batchRates)
	m["query_per_s"] = float64(tpQueries) / tpWall.Seconds()
	m["query_p50_ms"] = ms(p50)
	m["query_p99_ms"] = ms(p99)
	m["load_triples_per_s"] = batchRates[len(batchRates)/2]
	m["restart_s"] = medianDuration(restartTimes).Seconds()
	m["server_rss_mb"] = hwmKB / 1024
	m["disk_bytes_per_triple"] = float64(diskBytes) / float64(liveTriples)
	m["resp_bytes_per_query"] = ratio(float64(closedBytes+openBytes), float64(closedOK+openOK))

	// Per-layer metrics from outside the server: deltas of its /metrics
	// families and /proc counters between phase boundaries.
	timedQueries, spatialJoins := len(closed.samples)+len(open.samples), 0
	for _, r := range []*phaseResult{closed, open} {
		for _, s := range r.samples {
			if s.class == classSpatialJoin {
				spatialJoins++
			}
		}
	}
	hits, misses := delta(warmed, timed, "sparql_cache_hits_total"), delta(warmed, timed, "sparql_cache_misses_total")
	planHits, planMisses := delta(warmed, timed, "sparql_plan_cache_hits_total"), delta(warmed, timed, "sparql_plan_cache_misses_total")
	meanSeconds := func(before, after scrape, family, labels string) float64 {
		return ratio(delta(before, after, family+"_sum"+labels), delta(before, after, family+"_count"+labels))
	}
	m["endpoint.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["endpoint.rejected"] = delta(booted, loaded, "sparql_rejected_total")
	m["geostore.plan_cache_hit_ratio"] = ratio(planHits, planHits+planMisses)
	m["geostore.join_probes_per_query"] = ratio(delta(warmed, timed, "sparql_spatial_join_probes_total"), float64(spatialJoins))
	m["rdf.morsels_per_query"] = ratio(delta(warmed, timed, "sparql_exec_morsels_total"), float64(timedQueries))
	m["storage.wal_append_us_per_commit"] = 1e6 * meanSeconds(booted, loaded, "storage_wal_append_duration_seconds", "")
	m["storage.wal_fsync_ms"] = 1e3 * meanSeconds(booted, loaded, "storage_wal_fsync_duration_seconds", "")
	m["storage.wal_fsyncs_per_commit"] = ratio(delta(booted, loaded, "storage_wal_syncs_total"), delta(booted, loaded, "storage_wal_commits_total"))
	m["storage.wal_bytes_per_triple"] = ratio(float64(walAfter-walBefore), float64(liveTriples-ds.triples))
	m["storage.snapshot_bytes_per_triple"] = booted["storage_snapshot_last_bytes"] / float64(ds.triples)
	m["storage.snapshot_write_ms"] = 1e3 * meanSeconds(nil, booted, "storage_snapshot_duration_seconds", `{op="write"}`)
	m["storage.snapshot_load_ms"] = 1e3 * meanSeconds(nil, restarted, "storage_snapshot_duration_seconds", `{op="load"}`)
	m["eeserve.cpu_ms_per_query"] = ratio(ms(tpCPU), float64(tpQueries))
	m["eeserve.heap_mb"] = timed["sparql_heap_bytes"] / (1 << 20)
	for class := classJoinFilter; class < numClasses; class++ {
		byClass := sortedDurations(open.samples, func(s sample) (time.Duration, bool) { return s.latency, s.class == class })
		m["class."+classNames[class]+".p50_ms"] = ms(percentile(byClass, 0.50))
	}
	m["loadgen.pooled_p99_ms"] = ms(percentile(sortedDurations(open.samples, func(s sample) (time.Duration, bool) { return s.latency, true }), 0.99))
	m["loadgen.late_p99_ms"] = ms(percentile(sortedDurations(open.samples, func(s sample) (time.Duration, bool) { return s.late, true }), 0.99))

	if cfg.trace {
		// The traced run: the benchmark links the layers itself, rebuilds
		// the same store from the same file and replays the head of the
		// schedule with a span around every call into a layer.
		tr, err := traceRun(cfg, ds, ntPath, dataDir, sched, openLoads, p50)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		for k, v := range tr {
			m[k] = v
		}
	}
	return rep, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return percentile(ds, 0.5)
}

// windowedPercentiles cuts an open phase into equal windows by due time
// and takes each window's p50 and p99. p50 is the median window's. p99 is
// the 10th-percentile window's (the third quietest of 28): whatever else
// runs on the host, and the server's garbage collector every second or
// two, only ever add to a tail, so the quiet windows show the program's
// own. On this sandbox such bursts put 1 to 3 % of the requests right at
// the 99th percentile, and the plain p99 over all samples (kept as
// loadgen.pooled_p99_ms) differed by 60 to 90 % between runs of one
// commit. A stall that recurs in every window (the rebuild after each
// load on ingest-read, which has one window per load) stays fully
// visible, and so does anything that slows every request.
func windowedPercentiles(samples []sample, dur time.Duration, windows int) (p50, p99 time.Duration) {
	byWindow := make([][]time.Duration, windows)
	for _, s := range samples {
		i := min(int(s.due*time.Duration(windows)/dur), windows-1)
		byWindow[i] = append(byWindow[i], s.latency)
	}
	var p50s, p99s []time.Duration
	for _, lat := range byWindow {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50s = append(p50s, percentile(lat, 0.50))
		p99s = append(p99s, percentile(lat, 0.99))
	}
	sort.Slice(p99s, func(i, j int) bool { return p99s[i] < p99s[j] })
	return medianDuration(p50s), percentile(p99s, 0.10)
}

// verify has the oracle check verifyQueries full result sets drawn from
// the workload's own generator.
func verify(cl *client, gen *generator, orc *oracle, stream uint64, res *phaseResult) error {
	var body bytes.Buffer
	for i := 0; i < verifyQueries; i++ {
		q := gen.op(stream, i)
		body.Reset()
		res.attempted++
		if _, err := cl.query(&q, "", &body); err != nil {
			return err
		}
		if err := orc.check(&q, body.Bytes()); err != nil {
			return fmt.Errorf("%s query %d: %w\n%s", classNames[q.class], i, err, q.text)
		}
	}
	return nil
}
