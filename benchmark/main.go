// Command eeload is the repository's benchmark of record: it generates a
// seeded dataset, boots a real durable eeserve child process, drives it
// over loopback HTTP with one of four named workloads, checks answers
// against its own brute-force oracle and prints every metric as
// "workload metric value unit", then one JSON result line. See README.md.
//
// It is started by run.sh, which builds it and eeserve first:
//
//	bash benchmark/run.sh --workload window-cold --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// metricDef declares one metric: the names, units and directions here are
// the ones BENCHMARK.json lists (the package's tests hold the two equal).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"load_triples_per_s", "1/s", "higher", 0.25},
	{"restart_s", "s", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.25},
	{"disk_bytes_per_triple", "B", "lower", 0.02},
	{"resp_bytes_per_query", "B", "lower", 0.04},
}

var perLayerMetrics = []metricDef{
	{name: "endpoint.serve_hit_us", unit: "us", better: "lower"},
	{name: "endpoint.serve_miss_self_us", unit: "us", better: "lower"},
	{name: "endpoint.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "endpoint.serialize_json_us", unit: "us", better: "lower"},
	{name: "endpoint.serialize_ns_per_row", unit: "ns", better: "lower"},
	{name: "sextant.serialize_geojson_us", unit: "us", better: "lower"},
	{name: "endpoint.load_us_per_ktriple", unit: "us", better: "lower"},
	{name: "endpoint.rejected", unit: "count", better: "lower"},
	{name: "sparql.parse_us", unit: "us", better: "lower"},
	{name: "sparql.canonical_us", unit: "us", better: "lower"},
	{name: "geostore.query_miss_us", unit: "us", better: "lower"},
	{name: "geostore.query_hit_us", unit: "us", better: "lower"},
	{name: "geostore.compile_us", unit: "us", better: "lower"},
	{name: "geostore.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "geostore.first_query_after_load_ms", unit: "ms", better: "lower"},
	{name: "geostore.join_probes_per_query", unit: "count", better: "lower"},
	{name: "sparql.compile_us", unit: "us", better: "lower"},
	{name: "sparql.execute_seq_us", unit: "us", better: "lower"},
	{name: "sparql.execute_par1_us", unit: "us", better: "lower"},
	{name: "sparql.execute_par2_us", unit: "us", better: "lower"},
	{name: "rdf.matches_per_result", unit: "ratio", better: "lower"},
	{name: "rdf.morsels_per_query", unit: "count", better: "lower"},
	{name: "rdf.scan_us_per_ktriple", unit: "us", better: "lower"},
	{name: "rdf.add_batch_us_per_ktriple", unit: "us", better: "lower"},
	{name: "geom.rtree_bulkload_ms", unit: "ms", better: "lower"},
	{name: "geom.rtree_search_us", unit: "us", better: "lower"},
	{name: "geom.parse_wkt_ns", unit: "ns", better: "lower"},
	{name: "storage.wal_append_us_per_commit", unit: "us", better: "lower"},
	{name: "storage.wal_fsync_ms", unit: "ms", better: "lower"},
	{name: "storage.wal_fsyncs_per_commit", unit: "ratio", better: "lower"},
	{name: "storage.wal_bytes_per_triple", unit: "B", better: "lower"},
	{name: "storage.snapshot_bytes_per_triple", unit: "B", better: "lower"},
	{name: "storage.snapshot_write_ms", unit: "ms", better: "lower"},
	{name: "storage.snapshot_load_ms", unit: "ms", better: "lower"},
	{name: "storage.recover_ms", unit: "ms", better: "lower"},
	{name: "eeserve.cpu_ms_per_query", unit: "ms", better: "lower"},
	{name: "eeserve.heap_mb", unit: "MiB", better: "lower"},
	{name: "class.join_filter.p50_ms", unit: "ms", better: "lower"},
	{name: "class.count_group.p50_ms", unit: "ms", better: "lower"},
	{name: "class.orderby_limit.p50_ms", unit: "ms", better: "lower"},
	{name: "class.distinct.p50_ms", unit: "ms", better: "lower"},
	{name: "class.spatial_join.p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.pooled_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.http_overhead_us", unit: "us", better: "lower"},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "eeload:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "workload: window-hot, window-cold, analytic or ingest-read")
		seed    = flag.Int64("seed", 1, "seed of the dataset and of every request schedule")
		seconds = flag.Float64("seconds", 12, "measured seconds, split 1:4:7 into warm-up, closed phase and open phase")
		trace   = flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 adds the traced run and prints the per-layer metrics")
		eeserve = flag.String("eeserve", "", "path of the built eeserve binary (run.sh sets it)")
		workDir = flag.String("work", "", "scratch directory for the dataset and data dirs (run.sh sets it)")
		outDir  = flag.String("out", "", "directory for server logs and trace files (run.sh sets it)")
	)
	flag.Parse()
	w := workloadByName(*name)
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", *name)
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	case *seconds < 1 || *trace < 0 || *trace > 1:
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	case *eeserve == "" || *workDir == "" || *outDir == "":
		return fmt.Errorf("-eeserve, -work and -out are required; start the benchmark with benchmark/run.sh")
	}
	cfg := &config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: scaleFull,
		eeserve: *eeserve, outDir: *outDir,
		workDir: filepath.Join(*workDir, "run-"+strconv.Itoa(os.Getpid())),
	}

	// On a signal, leave nothing behind: no child process, no data dir.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllServers()
		os.RemoveAll(cfg.workDir)
		os.Exit(1)
	}()

	fmt.Printf("# eeload workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Printf("# host %s\n", hostInfo())
	fmt.Println("# warning: these latencies are a shared 2-core sandbox's, not a device's; compare runs on one host only")
	rep, err := run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# dataset_sha256=%s schedule_sha256=%s\n", rep.datasetSHA256, rep.scheduleSHA256)
	fmt.Printf("# open-phase samples=%d attempted=%d failed=%d failed_share=%g\n",
		rep.openSamples, rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	for _, e := range rep.errs {
		fmt.Printf("# failure: %s\n", e)
	}

	return rep.write(os.Stdout, w.name, cfg.trace)
}

// write prints one "workload metric value unit" line per declared metric
// and then the result object the driver reads: with trace the per-layer
// metrics, without it the end-to-end ones.
func (rep *report) write(out io.Writer, workload string, trace bool) error {
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(out, "%s %s %s %s\n", workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		res.Metrics[d.name] = value{v, d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// hostInfo labels a result with where it was measured.
func hostInfo() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; then both read unknown.
	commit, dirty := "unknown", "unknown"
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		if cwd, err := os.Getwd(); err == nil {
			// Never look for a repository above the checkout.
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		}
		return cmd.Output()
	}
	if out, err := git("rev-parse", "--short", "HEAD"); err == nil {
		commit = strings.TrimSpace(string(out))
		if out, err := git("status", "--porcelain"); err == nil {
			dirty = strconv.FormatBool(len(out) > 0)
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s dirty=%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, dirty, kernel)
}
