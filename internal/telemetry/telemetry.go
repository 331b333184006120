// Package telemetry is the dependency-free metrics registry shared by
// the serving layer and the storage engine: atomic counters, gauges and
// (optionally labeled) histograms registered into a Registry that
// renders the Prometheus text exposition format and a structured
// Snapshot for JSON introspection endpoints.
//
// Design constraints, in order:
//
//  1. Hot-path cost. A Counter is one atomic add; a Histogram
//     observation is one atomic add plus a short bounds scan. Nothing
//     on the update path takes a lock, formats a string, or allocates.
//     Code paths that may run without telemetry hold a nil *Counter or
//     nil *Metrics and pay exactly one pointer test.
//  2. Exposition stability. Rendering is deterministic: families print
//     in registration order, samples in creation order, and the line
//     formats byte-match what the endpoint's hand-rolled exposition
//     used to produce (integers via strconv.FormatUint, floats via the
//     %g spelling, histogram buckets cumulative with le inclusive and
//     a final +Inf).
//  3. No dependencies. Scrape-time derived values (runtime gauges,
//     store memory walks) plug in as read callbacks or registry-level
//     prepare hooks, so the registry itself imports only the standard
//     library.
package telemetry

import (
	"fmt"
	"io"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; NewCounter exists for detached counters that are attached to
// one or more families later (e.g. a counter exposed both as its own
// family and as a labeled sample of another).
type Counter struct{ v atomic.Uint64 }

// NewCounter returns a counter not yet attached to any family.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram counts observations into cumulative-on-render buckets.
// Create via the Registry (DurationHistogram/ValueHistogram or a
// HistogramFamily); the two flavours differ only in how the sum is
// accumulated and exposed:
//
//   - duration histograms bucket by seconds, accumulate the sum in
//     integer nanoseconds (exact — no float rounding under concurrent
//     adds) and expose it divided by 1e9;
//   - value histograms bucket and sum the observed integer directly.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last = +Inf
	sum     atomic.Uint64   // raw units: ns for durations, the value itself otherwise
	perUnit float64         // raw units per exposed unit (1e9 or 1)
}

func newHistogram(bounds []float64, perUnit float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at %g", bounds[i]))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		counts:  make([]atomic.Uint64, len(bounds)+1),
		perUnit: perUnit,
	}
}

// ObserveDuration records one duration sample. Only meaningful on
// histograms created with second-valued bounds (DurationHistogram).
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.sum.Add(uint64(d.Nanoseconds()))
	h.bucket(d.Seconds())
}

// ObserveValue records one integer sample (ValueHistogram flavour).
func (h *Histogram) ObserveValue(v uint64) {
	h.sum.Add(v)
	h.bucket(float64(v))
}

func (h *Histogram) bucket(v float64) {
	for i, ub := range h.bounds {
		if v <= ub { // le is inclusive, the Prometheus convention
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.bounds)].Add(1)
}

// BucketCounts returns the per-bucket (non-cumulative) counts, the last
// entry being the +Inf bucket. For tests.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Sum returns the observation sum in exposed units (seconds for
// duration histograms).
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) / h.perUnit }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// value is one rendered sample: the exact exposition text plus the
// float64 for Snapshot consumers.
type value struct {
	text string
	f    float64
}

func uintValue(v uint64) value { return value{strconv.FormatUint(v, 10), float64(v)} }
func intValue(v int64) value   { return value{strconv.FormatInt(v, 10), float64(v)} }
func floatValue(v float64) value {
	// 'g' with the shortest precision is what fmt's %g prints, which is
	// what the pre-registry exposition used.
	return value{strconv.FormatFloat(v, 'g', -1, 64), v}
}

// sample is one counter/gauge time series within a family.
type sample struct {
	labels string // rendered label set incl. braces, or ""
	read   func() value
}

// histSample is one histogram series within a family.
type histSample struct {
	inner string // rendered label pairs without braces, or ""
	h     *Histogram
}

type family struct {
	name, help, kind string
	samples          []sample
	hists            []histSample
}

// Registry holds registered metric families. Registration happens at
// startup (methods panic on invalid or duplicate names — programming
// errors, like the prometheus client's MustRegister); updates and
// rendering are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	prepare  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func (r *Registry) newFamily(name, help, kind string) *family {
	if !metricNameRe.MatchString(name) {
		panic("telemetry: invalid metric name " + name)
	}
	if help == "" {
		panic("telemetry: metric " + name + " needs help text")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("telemetry: duplicate metric " + name)
	}
	f := &family{name: name, help: help, kind: kind}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// AddPrepare registers a hook run once per WritePrometheus/Snapshot
// call, before any sample is read. Use it to refresh derived values
// that are too expensive to recompute per-gauge (e.g. one store memory
// walk feeding several gauges).
func (r *Registry) AddPrepare(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prepare = append(r.prepare, fn)
}

// renderLabels turns alternating key, value strings into
// `key="value",...` (no braces). Values are %q-escaped.
func renderLabels(labels []string) string {
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be alternating key, value pairs")
	}
	out := ""
	for i := 0; i < len(labels); i += 2 {
		if !labelNameRe.MatchString(labels[i]) {
			panic("telemetry: invalid label name " + labels[i])
		}
		if i > 0 {
			out += ","
		}
		out += labels[i] + "=" + strconv.Quote(labels[i+1])
	}
	return out
}

func braced(inner string) string {
	if inner == "" {
		return ""
	}
	return "{" + inner + "}"
}

// Counter registers a single-series counter family and returns its
// counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := NewCounter()
	f := r.newFamily(name, help, "counter")
	f.samples = append(f.samples, sample{read: func() value { return uintValue(c.Load()) }})
	return c
}

// CounterFunc registers a single-series counter family whose value is
// read from fn at render time (for counters owned elsewhere, e.g. an
// engine's atomic).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.newFamily(name, help, "counter")
	f.samples = append(f.samples, sample{read: func() value { return uintValue(fn()) }})
}

// FloatCounterFunc is CounterFunc for a counter that accumulates a
// fractional quantity (seconds spent), printed in %g notation.
func (r *Registry) FloatCounterFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, "counter")
	f.samples = append(f.samples, sample{read: func() value { return floatValue(fn()) }})
}

// CounterFamily is a counter family that carries labeled (and
// optionally one unlabeled) series.
type CounterFamily struct{ f *family }

// CounterFamily registers an empty labeled counter family.
func (r *Registry) CounterFamily(name, help string) *CounterFamily {
	return &CounterFamily{f: r.newFamily(name, help, "counter")}
}

// Counter adds a series with the given label pairs and returns its
// counter.
func (cf *CounterFamily) Counter(labels ...string) *Counter {
	c := NewCounter()
	cf.Attach(c, labels...)
	return c
}

// Attach adds a series backed by an existing counter. The same counter
// may back series in several families (e.g. a timeout counter exposed
// both as its own family and as the kind="timeout" series of the error
// family).
func (cf *CounterFamily) Attach(c *Counter, labels ...string) {
	cf.f.samples = append(cf.f.samples, sample{
		labels: braced(renderLabels(labels)),
		read:   func() value { return uintValue(c.Load()) },
	})
}

// AttachFunc adds a series read from fn at render time.
func (cf *CounterFamily) AttachFunc(fn func() uint64, labels ...string) {
	cf.f.samples = append(cf.f.samples, sample{
		labels: braced(renderLabels(labels)),
		read:   func() value { return uintValue(fn()) },
	})
}

// Gauge registers a single-series int gauge family and returns its
// gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	f := r.newFamily(name, help, "gauge")
	f.samples = append(f.samples, sample{read: func() value { return intValue(g.Load()) }})
	return g
}

// GaugeFunc registers a float gauge read from fn at render time,
// printed in %g notation (uptime-style values).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, "gauge")
	f.samples = append(f.samples, sample{read: func() value { return floatValue(fn()) }})
}

// IntGaugeFunc registers an integer gauge read from fn at render time,
// printed as a plain integer (%g would flip large byte counts into
// exponent notation).
func (r *Registry) IntGaugeFunc(name, help string, fn func() int64) {
	f := r.newFamily(name, help, "gauge")
	f.samples = append(f.samples, sample{read: func() value { return intValue(fn()) }})
}

// GaugeFamily is a gauge family carrying labeled series.
type GaugeFamily struct{ f *family }

// GaugeFamily registers an empty labeled gauge family.
func (r *Registry) GaugeFamily(name, help string) *GaugeFamily {
	return &GaugeFamily{f: r.newFamily(name, help, "gauge")}
}

// Const adds a series pinned to a constant value (build_info-style).
func (gf *GaugeFamily) Const(v int64, labels ...string) {
	val := intValue(v)
	gf.f.samples = append(gf.f.samples, sample{
		labels: braced(renderLabels(labels)),
		read:   func() value { return val },
	})
}

// IntFunc adds an integer series read from fn at render time.
func (gf *GaugeFamily) IntFunc(fn func() int64, labels ...string) {
	gf.f.samples = append(gf.f.samples, sample{
		labels: braced(renderLabels(labels)),
		read:   func() value { return intValue(fn()) },
	})
}

// DurationHistogram registers a single-series histogram over
// second-valued bucket bounds; feed it with ObserveDuration.
func (r *Registry) DurationHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds, 1e9)
	f := r.newFamily(name, help, "histogram")
	f.hists = append(f.hists, histSample{h: h})
	return h
}

// ValueHistogram registers a single-series histogram over plain integer
// observations (batch sizes, byte counts); feed it with ObserveValue.
func (r *Registry) ValueHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds, 1)
	f := r.newFamily(name, help, "histogram")
	f.hists = append(f.hists, histSample{h: h})
	return h
}

// HistogramFamily is a histogram family carrying labeled series.
type HistogramFamily struct {
	f       *family
	bounds  []float64
	perUnit float64
}

// DurationHistogramFamily registers an empty labeled duration-histogram
// family; all series share the bucket bounds.
func (r *Registry) DurationHistogramFamily(name, help string, bounds []float64) *HistogramFamily {
	return &HistogramFamily{f: r.newFamily(name, help, "histogram"), bounds: bounds, perUnit: 1e9}
}

// Histogram adds a series with the given label pairs.
func (hf *HistogramFamily) Histogram(labels ...string) *Histogram {
	h := newHistogram(hf.bounds, hf.perUnit)
	hf.f.hists = append(hf.f.hists, histSample{inner: renderLabels(labels), h: h})
	return h
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) {
	for _, f := range r.snapshotFamilies() {
		f.write(w)
	}
}

// snapshotFamilies runs the prepare hooks and returns a stable view of
// the family list.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	prepare := append(make([]func(), 0, len(r.prepare)), r.prepare...)
	r.mu.Unlock()
	for _, fn := range prepare {
		fn()
	}
	return fams
}

func (f *family) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
	for _, s := range f.samples {
		fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, s.read().text)
	}
	for _, hs := range f.hists {
		prefix := hs.inner
		if prefix != "" {
			prefix += ","
		}
		cum := uint64(0)
		for i, ub := range hs.h.bounds {
			cum += hs.h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{%sle=\"%s\"} %d\n", f.name, prefix, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += hs.h.counts[len(hs.h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, prefix, cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(hs.inner), floatValue(hs.h.Sum()).text)
		fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(hs.inner), cum)
	}
}

// Snapshot is a structured point-in-time read of the registry, for JSON
// introspection endpoints and tests.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family's snapshot.
type FamilySnapshot struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"`
	Help   string   `json:"help"`
	Series []Series `json:"series"`
}

// Series is one sample: the rendered label set (empty for unlabeled)
// and the value. Histogram families expand into their cumulative
// bucket, sum and count series, mirroring the text exposition.
type Series struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// Snapshot reads every family. Values observed concurrently with
// updates are each individually consistent (atomic loads), like a
// scrape.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.snapshotFamilies() {
		fs := FamilySnapshot{Name: f.name, Kind: f.kind, Help: f.help}
		for _, s := range f.samples {
			fs.Series = append(fs.Series, Series{Name: f.name, Labels: s.labels, Value: s.read().f})
		}
		for _, hs := range f.hists {
			prefix := hs.inner
			if prefix != "" {
				prefix += ","
			}
			cum := uint64(0)
			for i, ub := range hs.h.bounds {
				cum += hs.h.counts[i].Load()
				fs.Series = append(fs.Series, Series{
					Name:   f.name + "_bucket",
					Labels: "{" + prefix + `le="` + strconv.FormatFloat(ub, 'g', -1, 64) + `"}`,
					Value:  float64(cum),
				})
			}
			cum += hs.h.counts[len(hs.h.bounds)].Load()
			fs.Series = append(fs.Series,
				Series{Name: f.name + "_bucket", Labels: "{" + prefix + `le="+Inf"}`, Value: float64(cum)},
				Series{Name: f.name + "_sum", Labels: braced(hs.inner), Value: hs.h.Sum()},
				Series{Name: f.name + "_count", Labels: braced(hs.inner), Value: float64(cum)})
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
