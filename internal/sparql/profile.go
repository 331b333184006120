package sparql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/rdf"
)

// This file is the EXPLAIN ANALYZE surface over the instrumented
// executor (rdf.RunStats / rdf.ParallelRunStats): ExecuteAnalyzed and
// ExecuteParallelAnalyzed run a plan with stats collection on and shape
// the counters into a Profile — a JSON-serializable tree the endpoint
// attaches as a query sidecar and the slow-query ring retains — and
// ExplainAnalyze renders the static plan with measured per-step rows,
// matches, filter drops and timings for humans (eequery -analyze).

// StepProfile is one pipeline step's measured runtime joined with the
// planner's static description of it.
type StepProfile struct {
	// Step is the 1-based step number (matching Explain's numbering).
	Step int `json:"step"`
	// Access names the access path (index scan, merge join, or an index
	// probe's label, e.g. the spatial join).
	Access string `json:"access"`
	// Pattern is the triple pattern text ("" for probe steps).
	Pattern string `json:"pattern,omitempty"`
	// Est is the planner's estimated rows per upstream row (omitted for
	// probe steps, where it is unknown).
	Est float64 `json:"est,omitempty"`
	// Filters lists the labels of filters pushed to this step.
	Filters []string `json:"filters,omitempty"`
	// RowsIn counts upstream rows entering the step. On the parallel
	// path the first step's RowsIn is the number of morsels (each morsel
	// is one slice of the single logical first-step invocation).
	RowsIn int64 `json:"rows_in"`
	// RowsOut counts rows the step passed downstream (the next step's
	// RowsIn; for the last step, the emitted row count).
	RowsOut int64 `json:"rows_out"`
	// Matches counts index entries or probe candidates matching the
	// step's pattern, before pushed filters. For spatial-probe steps
	// this is the per-step spatial probe candidate count.
	Matches int64 `json:"matches"`
	// FilterDrops counts matches rejected by this step's pushed filters.
	FilterDrops int64 `json:"filter_drops"`
	// ElapsedNs is inclusive wall time: this step plus everything
	// downstream of it (summed across workers on the parallel path).
	ElapsedNs int64 `json:"elapsed_ns"`
	// SelfNs is ElapsedNs minus the next step's inclusive time: the time
	// attributable to this step alone.
	SelfNs int64 `json:"self_ns"`
}

// WorkerProfile is one parallel worker's share of a profiled run.
type WorkerProfile struct {
	Worker int `json:"worker"`
	// Morsels is the number of morsels this worker claimed.
	Morsels int64 `json:"morsels"`
	// Rows is the number of rows this worker emitted.
	Rows int64 `json:"rows"`
	// BusyNs is the worker's wall time inside the claim loop.
	BusyNs int64 `json:"busy_ns"`
	// Utilization is BusyNs over the run's total elapsed time (0..1).
	Utilization float64 `json:"utilization"`
}

// Profile is the result of one analyzed query execution. It serializes
// to JSON for the endpoint's analyze sidecar and /debug/queries, and
// renders to text via Render for eequery -analyze.
type Profile struct {
	// Query is the canonical query text; Fingerprint its hash.
	Query       string `json:"query,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	// Parallel is the executed worker degree (0 or 1 = sequential).
	Parallel int `json:"parallel,omitempty"`
	// ElapsedNs is the total execution wall time.
	ElapsedNs int64 `json:"elapsed_ns"`
	// Rows is the final result row count (after DISTINCT/ORDER/LIMIT
	// and projection).
	Rows int `json:"rows"`
	// SeedRows / SeedDrops count seed-stage rows entering the pipeline
	// and those rejected by seed-stage filters; SeedFilters labels them.
	SeedRows    int64    `json:"seed_rows"`
	SeedDrops   int64    `json:"seed_drops,omitempty"`
	SeedFilters []string `json:"seed_filters,omitempty"`
	// Emitted counts solution rows that left the pipeline (pre-LIMIT
	// truncation, post pushed filters).
	Emitted int64 `json:"emitted"`
	// Morsels is the number of morsels dispatched (parallel runs only).
	Morsels int64 `json:"morsels,omitempty"`
	// Steps is the per-step profile in execution order.
	Steps []StepProfile `json:"steps"`
	// Workers is the per-worker utilization (parallel runs only).
	Workers []WorkerProfile `json:"workers,omitempty"`
	// Note carries execution-path remarks (e.g. "naive mode: executor
	// not instrumented").
	Note string `json:"note,omitempty"`
}

// buildSteps joins measured step counters with the plan's static step
// descriptions and derives RowsOut and SelfNs.
func (p *Plan) buildSteps(steps []rdf.StepRuntime, emitted int64) []StepProfile {
	infos := p.bgp.StepInfos()
	out := make([]StepProfile, len(infos))
	for i := range infos {
		sp := StepProfile{
			Step:    i + 1,
			Access:  infos[i].Access,
			Pattern: strings.TrimSuffix(infos[i].Pattern, " ."),
			Filters: infos[i].Filters,
		}
		if infos[i].Est >= 0 {
			sp.Est = infos[i].Est
		}
		// A run that never started (e.g. an unbound GROUP BY variable)
		// leaves the counters unsized; render zeros.
		if i < len(steps) {
			sp.RowsIn = steps[i].RowsIn
			sp.Matches = steps[i].Matches
			sp.FilterDrops = steps[i].FilterDrops
			sp.ElapsedNs = steps[i].ElapsedNs
		}
		out[i] = sp
	}
	for i := range out {
		if i+1 < len(out) {
			out[i].RowsOut = out[i+1].RowsIn
			if self := out[i].ElapsedNs - out[i+1].ElapsedNs; self > 0 {
				out[i].SelfNs = self
			}
		} else {
			out[i].RowsOut = emitted
			out[i].SelfNs = out[i].ElapsedNs
		}
	}
	return out
}

// newProfile fills the profile fields shared by both executors.
func (p *Plan) newProfile(elapsed time.Duration, rows int) *Profile {
	return &Profile{
		Query:       p.q.Canonical(),
		Fingerprint: p.q.Fingerprint(),
		ElapsedNs:   int64(elapsed),
		Rows:        rows,
		SeedFilters: p.bgp.SeedFilterLabels(),
	}
}

// ExecuteAnalyzed is ExecuteSeeded with runtime stats collection: it
// returns the results plus the execution Profile.
func (p *Plan) ExecuteAnalyzed(seeds []rdf.Row) (*Results, *Profile, error) {
	stats := p.bgp.NewRunStats()
	start := time.Now()
	res, err := p.executeSeededStats(seeds, stats)
	elapsed := time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	prof := p.newProfile(elapsed, res.Len())
	prof.SeedRows, prof.SeedDrops = stats.SeedRows, stats.SeedDrops
	prof.Emitted = stats.Emitted
	prof.Steps = p.buildSteps(stats.Steps, stats.Emitted)
	return res, prof, nil
}

// ExecuteParallelAnalyzed is ExecuteParallelSeeded with runtime stats
// collection: per-worker counters are merged into one Profile with
// morsel and worker-utilization detail.
func (p *Plan) ExecuteParallelAnalyzed(seeds []rdf.Row, px ParallelExec) (*Results, *Profile, error) {
	stats := &rdf.ParallelRunStats{}
	px.Stats = stats
	start := time.Now()
	res, err := p.ExecuteParallelSeeded(seeds, px)
	elapsed := time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	prof := p.newProfile(elapsed, res.Len())
	prof.Parallel = len(stats.Workers)
	if prof.Parallel == 0 {
		prof.Parallel = px.Degree
	}
	prof.SeedRows, prof.SeedDrops = stats.SeedRows, stats.SeedDrops
	prof.Emitted = stats.Emitted
	prof.Morsels = stats.Morsels
	prof.Steps = p.buildSteps(stats.Steps, stats.Emitted)
	for w, ws := range stats.Workers {
		wp := WorkerProfile{Worker: w, Morsels: ws.Morsels, Rows: ws.Rows, BusyNs: ws.BusyNs}
		if prof.ElapsedNs > 0 {
			wp.Utilization = float64(ws.BusyNs) / float64(prof.ElapsedNs)
			if wp.Utilization > 1 {
				wp.Utilization = 1
			}
		}
		prof.Workers = append(prof.Workers, wp)
	}
	return res, prof, nil
}

// ExplainAnalyze executes the plan (unseeded) with stats collection and
// renders the static plan followed by the measured per-step profile.
// Plans compiled for seeded evaluation should be executed through
// ExecuteAnalyzed/ExecuteParallelAnalyzed instead, with the profile
// rendered via Profile.Render.
func (p *Plan) ExplainAnalyze() (string, error) {
	_, prof, err := p.ExecuteAnalyzed(nil)
	if err != nil {
		return "", err
	}
	return p.Explain() + prof.Render(), nil
}

// TotalFilterDrops sums pushed-filter and seed-filter drops across the
// profile's steps (the source of the endpoint's
// sparql_filter_drops_total counter).
func (prof *Profile) TotalFilterDrops() int64 {
	n := prof.SeedDrops
	for _, sp := range prof.Steps {
		n += sp.FilterDrops
	}
	return n
}

// fmtNs renders a nanosecond count as a human duration.
func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// Render renders the profile as indented text (the eequery -analyze
// output format).
func (prof *Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "analyze: %d rows in %s (emitted %d", prof.Rows, fmtNs(prof.ElapsedNs), prof.Emitted)
	if prof.SeedRows > 0 {
		fmt.Fprintf(&b, ", seed rows %d", prof.SeedRows)
	}
	if prof.SeedDrops > 0 {
		fmt.Fprintf(&b, ", seed drops %d", prof.SeedDrops)
	}
	b.WriteString(")\n")
	for _, sp := range prof.Steps {
		fmt.Fprintf(&b, "  step %d: %s", sp.Step, sp.Access)
		if sp.Pattern != "" {
			fmt.Fprintf(&b, "  %s", sp.Pattern)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "    rows in %d, matches %d, filter drops %d, rows out %d  [incl %s, self %s]\n",
			sp.RowsIn, sp.Matches, sp.FilterDrops, sp.RowsOut, fmtNs(sp.ElapsedNs), fmtNs(sp.SelfNs))
	}
	if prof.Parallel > 1 || len(prof.Workers) > 0 {
		fmt.Fprintf(&b, "  parallel: %d workers, %d morsels\n", prof.Parallel, prof.Morsels)
		for _, wp := range prof.Workers {
			fmt.Fprintf(&b, "    worker %d: %d morsels, %d rows, busy %s (%.0f%% utilized)\n",
				wp.Worker, wp.Morsels, wp.Rows, fmtNs(wp.BusyNs), wp.Utilization*100)
		}
	}
	if prof.Note != "" {
		fmt.Fprintf(&b, "  note: %s\n", prof.Note)
	}
	return b.String()
}
