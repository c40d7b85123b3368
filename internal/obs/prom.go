package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency bucket layout, in seconds. It spans
// 100µs..10s, which covers everything from a cached frame fetch to a long
// analyze job.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metric is anything a Registry can render. Families render themselves,
// HELP and TYPE lines included, so every sample in the exposition is
// guaranteed to sit under its own header.
type metric interface {
	metricName() string
	renderTo(b *strings.Builder)
}

// Registry is a collection of metric families rendered together in
// Prometheus text exposition format (version 0.0.4). Registration panics on
// duplicate or malformed names: both are programmer errors that should fail
// at startup, not at scrape time.
type Registry struct {
	mu   sync.Mutex
	fams map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]metric)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry. Library packages (trace, sched,
// core, flight) register their histograms here at init time; the daemon
// renders it after its own registry on /metrics.
func Default() *Registry { return defaultRegistry }

func (r *Registry) register(name string, m metric) {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.fams[name] = m
}

// Render writes every registered family in name order. Each family carries
// its own # HELP and # TYPE lines.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	ms := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, m := range ms {
		m.renderTo(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func helpLine(b *strings.Builder, name, help, typ string) {
	esc := strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(help)
	b.WriteString("# HELP " + name + " " + esc + "\n")
	b.WriteString("# TYPE " + name + " " + typ + "\n")
}

func escLabel(v string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
}

func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// atomicFloat is a float64 updated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. Counter names must end in
// _total by convention; registration enforces it.
type Counter struct {
	nm, help string
	val      atomicFloat
}

// NewCounter registers and returns a counter. The name must end in _total.
func (r *Registry) NewCounter(name, help string) *Counter {
	checkInstrument(KindCounter, name, "")
	c := &Counter{nm: name, help: help}
	r.register(name, c)
	return c
}

// Add increments the counter. Negative deltas are ignored. No-op while
// telemetry is disabled.
func (c *Counter) Add(v float64) {
	if v < 0 || !enabled.Load() {
		return
	}
	c.val.add(v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.val.load() }

func (c *Counter) metricName() string { return c.nm }

func (c *Counter) renderTo(b *strings.Builder) {
	helpLine(b, c.nm, c.help, "counter")
	b.WriteString(c.nm + " " + fmtFloat(c.val.load()) + "\n")
}

// funcMetric is a collector: a counter or gauge family whose samples are
// computed at render time from an authoritative source held elsewhere (a
// scheduler, a store, an atomic), so nothing mirrors that source by hand.
// Scalar families set fn; single-label families set label and vfn, which
// returns the value per label value.
type funcMetric struct {
	nm, help, kind, label string
	fn                    func() float64
	vfn                   func() map[string]float64
}

// NewGaugeFunc registers a gauge evaluated on every scrape.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.newFunc(&funcMetric{nm: name, help: help, kind: KindGauge, fn: fn})
}

// NewCounterFunc registers a counter evaluated on every scrape; fn must
// read a cumulative count that never decreases.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.newFunc(&funcMetric{nm: name, help: help, kind: KindCounter, fn: fn})
}

// NewGaugeVecFunc registers a one-label gauge family evaluated on every
// scrape: fn returns the value per label value.
func (r *Registry) NewGaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	r.newFunc(&funcMetric{nm: name, help: help, kind: KindGauge, label: label, vfn: fn})
}

// NewCounterVecFunc registers a one-label counter family evaluated on
// every scrape: fn returns the cumulative count per label value.
func (r *Registry) NewCounterVecFunc(name, help, label string, fn func() map[string]float64) {
	r.newFunc(&funcMetric{nm: name, help: help, kind: KindCounter, label: label, vfn: fn})
}

func (r *Registry) newFunc(m *funcMetric) {
	checkInstrument(m.kind, m.nm, m.label)
	r.register(m.nm, m)
}

func (m *funcMetric) metricName() string { return m.nm }

func (m *funcMetric) renderTo(b *strings.Builder) {
	helpLine(b, m.nm, m.help, m.kind)
	if m.vfn == nil {
		b.WriteString(m.nm + " " + fmtFloat(m.fn()) + "\n")
		return
	}
	vals := m.vfn()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(m.nm + `{` + m.label + `="` + escLabel(k) + `"} ` + fmtFloat(vals[k]) + "\n")
	}
}

// Histogram is a fixed-bucket latency histogram. Observations are atomic
// adds; rendering produces the cumulative _bucket/_sum/_count series.
type Histogram struct {
	nm, help string
	bounds   []float64 // sorted upper bounds, +Inf implicit
	counts   []atomic.Uint64
	sum      atomicFloat
	count    atomic.Uint64
	labels   string // pre-rendered label set ("" or `{k="v"}`), for vec children
}

// NewHistogram registers a histogram with the given bucket upper bounds
// (seconds for latency series). Nil buckets mean DefBuckets.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	checkInstrument(KindHistogram, name, "")
	h := newHistogram(name, help, buckets, "")
	r.register(name, h)
	return h
}

func newHistogram(name, help string, buckets []float64, labels string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			panic("obs: duplicate histogram bucket in " + name)
		}
	}
	return &Histogram{
		nm: name, help: help, bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)),
		labels: labels,
	}
}

// Observe records one value. No-op while telemetry is disabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	// First bucket whose upper bound contains v; +Inf overflow counts only
	// in sum/count and surfaces via the implicit +Inf bucket at render.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	}
	h.sum.add(v)
	h.count.Add(1)
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 { return h.sum.load() }

func (h *Histogram) metricName() string { return h.nm }

func (h *Histogram) renderTo(b *strings.Builder) {
	helpLine(b, h.nm, h.help, "histogram")
	h.renderSamples(b)
}

func (h *Histogram) renderSamples(b *strings.Builder) {
	inner := strings.TrimSuffix(strings.TrimPrefix(h.labels, "{"), "}")
	sep := ""
	if inner != "" {
		sep = ","
	}
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", h.nm, inner, sep, fmtFloat(ub), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", h.nm, inner, sep, h.count.Load())
	b.WriteString(h.nm + "_sum" + h.labels + " " + fmtFloat(h.sum.load()) + "\n")
	fmt.Fprintf(b, "%s_count%s %d\n", h.nm, h.labels, h.count.Load())
}

// vec is the shared machinery for single-label metric families.
type vec[T metric] struct {
	nm, help, label string
	mu              sync.Mutex
	children        map[string]T
	mk              func(labels string) T
}

func (v *vec[T]) child(value string) T {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = v.mk(`{` + v.label + `="` + escLabel(value) + `"}`)
		v.children[value] = c
	}
	return c
}

func (v *vec[T]) sortedValues() []string {
	vals := make([]string, 0, len(v.children))
	for lv := range v.children {
		vals = append(vals, lv)
	}
	sort.Strings(vals)
	return vals
}

// CounterVec is a counter family partitioned by one label.
type CounterVec struct {
	vec[*labeledCounter]
}

type labeledCounter struct {
	Counter
	labels string
}

func (c *labeledCounter) renderTo(b *strings.Builder) {
	b.WriteString(c.nm + c.labels + " " + fmtFloat(c.val.load()) + "\n")
}

// NewCounterVec registers a counter family with one label dimension.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	checkInstrument(KindCounter, name, label)
	cv := &CounterVec{vec[*labeledCounter]{
		nm: name, help: help, label: label,
		children: make(map[string]*labeledCounter),
	}}
	cv.mk = func(labels string) *labeledCounter {
		return &labeledCounter{Counter: Counter{nm: name, help: help}, labels: labels}
	}
	r.register(name, cv)
	return cv
}

// With returns the child counter for the given label value.
func (cv *CounterVec) With(value string) *Counter { return &cv.child(value).Counter }

func (cv *CounterVec) metricName() string { return cv.nm }

func (cv *CounterVec) renderTo(b *strings.Builder) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	helpLine(b, cv.nm, cv.help, "counter")
	for _, lv := range cv.sortedValues() {
		cv.children[lv].renderTo(b)
	}
}

// HistogramVec is a histogram family partitioned by one label.
type HistogramVec struct {
	vec[*Histogram]
}

// NewHistogramVec registers a histogram family with one label dimension.
// Nil buckets mean DefBuckets.
func (r *Registry) NewHistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	checkInstrument(KindHistogram, name, label)
	hv := &HistogramVec{vec[*Histogram]{
		nm: name, help: help, label: label,
		children: make(map[string]*Histogram),
	}}
	hv.mk = func(labels string) *Histogram {
		return newHistogram(name, help, buckets, labels)
	}
	r.register(name, hv)
	return hv
}

// With returns the child histogram for the given label value.
func (hv *HistogramVec) With(value string) *Histogram { return hv.child(value) }

func (hv *HistogramVec) metricName() string { return hv.nm }

func (hv *HistogramVec) renderTo(b *strings.Builder) {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	helpLine(b, hv.nm, hv.help, "histogram")
	for _, lv := range hv.sortedValues() {
		hv.children[lv].renderSamples(b)
	}
}
