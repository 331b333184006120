package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// BENCHMARK.json and the tables in main.go and workload.go declare the
// same workloads and metrics, within the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if got := strings.Join(m.Command, " "); got != "bash benchmark/run.sh" {
		t.Errorf("command = %q", got)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table (limit 8)", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the table", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table (limit %d)", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the table %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s metric %q (unit %q): bad or repeated name, or bad unit", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s metric %s: bound %v in BENCHMARK.json, %v in the table (limit 0.25)", kind, g.Name, g.Bound, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s metric %s has a bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEndMetrics, 16, true)
	compare("per_layer", m.PerLayer, perLayerMetrics, 128, false)
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Error("the first end-to-end metric must be setup_s, in s, lower is better")
	}
}

// TestSmoke boots a real eeserve at a fixed small scale and runs every
// workload once, traced: all oracle checks pass, nothing fails, and the
// run measures exactly the declared metrics, each once.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eeserve")
	}
	dir := t.TempDir()
	eeserve := filepath.Join(dir, "eeserve")
	if out, err := exec.Command("go", "build", "-o", eeserve, "repro/cmd/eeserve").CombinedOutput(); err != nil {
		t.Fatalf("build eeserve: %v\n%s", err, out)
	}
	var declared []string
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		declared = append(declared, d.name)
	}
	sort.Strings(declared)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := &config{
				workload: w, seed: 1, seconds: 1.2, trace: true, scale: scaleSmoke,
				eeserve: eeserve, workDir: filepath.Join(dir, "work-"+w.name), outDir: filepath.Join(dir, "out"),
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted < 2*verifyQueries {
				t.Errorf("attempted %d, failed %d: %v", rep.attempted, rep.failed, rep.errs)
			}
			var measured []string
			for name := range rep.metrics {
				measured = append(measured, name)
			}
			sort.Strings(measured)
			if strings.Join(measured, " ") != strings.Join(declared, " ") {
				t.Errorf("measured metrics differ from the declared ones:\nmeasured %v\ndeclared %v", measured, declared)
			}
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				if err := rep.write(&out, w.name, trace); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				defs := endToEndMetrics
				if trace {
					defs = perLayerMetrics
				}
				if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: correct=%v attempted=%d, %d metrics, want %d", trace, res.Correct, res.Attempted, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if got, ok := res.Metrics[d.name]; !ok || got.Value == nil || got.Unit != d.unit {
						t.Errorf("trace=%v: metric %s missing or with the wrong unit: %+v", trace, d.name, got)
					}
				}
			}
			if rep.metrics["setup_s"] <= 0 || rep.metrics["query_per_s"] <= 0 || rep.metrics["query_p99_ms"] <= 0 {
				t.Errorf("end-to-end metrics must never be 0: %v", rep.metrics)
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			if _, err := os.Stat(cfg.workDir); !os.IsNotExist(err) {
				t.Errorf("the run left its work directory behind: %v", err)
			}
		})
	}
}

// The benchmark holds itself to the repository's own static analysis,
// without a single suppression.
func TestVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs eevet")
	}
	if out, err := exec.Command("go", "run", "repro/cmd/eevet", "./...").CombinedOutput(); err != nil {
		t.Errorf("eevet: %v\n%s", err, out)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if f != "smoke_test.go" && bytes.Contains(b, []byte("//eevet:"+"ignore")) {
			t.Errorf("%s suppresses an eevet finding", f)
		}
	}
}
