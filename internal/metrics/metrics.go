// Package metrics implements the observability plane: a registry of
// named counters, gauges and histograms with Prometheus text-exposition
// rendering, structured per-flow event tracing with per-node ring
// buffers (events.go), and an HTTP endpoint serving /metrics, /status
// and /events (http.go) so a running cluster can be scraped
// mid-experiment.
//
// The registry is the concurrency boundary between the simulation and
// scrapers: every instrument is safe for concurrent use, and func-backed
// instruments (RegisterCounterFunc / RegisterGaugeFunc) document that
// their callback runs on the scraper's goroutine — it must only read
// state that is itself race-safe (atomic counters, published snapshots).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Type classifies an instrument for the # TYPE exposition line.
type Type uint8

// Instrument types.
const (
	TypeCounter Type = iota
	TypeGauge
	TypeHistogram
)

func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// Labels attaches dimension key/value pairs to one series of a metric
// family (e.g. {"slot": "3"}). Keys must be valid label names; values
// are escaped on rendering.
type Labels map[string]string

// Counter is a monotonically increasing counter. The zero value is
// ready to use, but counters normally come from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down, stored as a float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket "le" bounds, plus +Inf, _sum and _count).
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations in one step (bulk import
// from a pre-aggregated histogram).
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v*float64(n))) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// series is one labeled instance of a metric family.
type series struct {
	labels  string // pre-rendered, sorted: `{k="v",...}` or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // func-backed counter or gauge
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	typ    Type
	series map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating as needed) the family and the series slot
// for (name, labels), enforcing name validity and type consistency.
func (r *Registry) lookup(name, help string, typ Type, labels Labels) *series {
	if err := checkMetricName(name); err != nil {
		panic(err)
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", name, f.typ, typ))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		f.series[key] = s
	}
	return s
}

// Counter returns the counter for (name, labels), registering it on
// first use. Registering the same series twice returns the same
// counter; registering a name under two instrument types panics.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.lookup(name, help, TypeCounter, labels)
	if s.fn != nil {
		panic(fmt.Sprintf("metrics: %s%s is func-backed", name, s.labels))
	}
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), registering it on first
// use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.lookup(name, help, TypeGauge, labels)
	if s.fn != nil {
		panic(fmt.Sprintf("metrics: %s%s is func-backed", name, s.labels))
	}
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds (ascending; +Inf is implicit), registering it on
// first use. Bounds are fixed by the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	s := r.lookup(name, help, TypeHistogram, labels)
	if s.hist == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		s.hist = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}
	return s.hist
}

// RegisterCounterFunc registers a counter whose value is produced by fn
// at scrape time. fn runs on the scraper's goroutine, concurrently with
// the system under observation: it must only read race-safe state
// (atomic counters, mutex-guarded aggregates, published snapshots).
// Registering the same series twice panics.
func (r *Registry) RegisterCounterFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, TypeCounter, labels, fn)
}

// RegisterGaugeFunc registers a gauge whose value is produced by fn at
// scrape time, under the same concurrency contract as
// RegisterCounterFunc.
func (r *Registry) RegisterGaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, TypeGauge, labels, fn)
}

func (r *Registry) registerFunc(name, help string, typ Type, labels Labels, fn func() float64) {
	s := r.lookup(name, help, typ, labels)
	if s.fn != nil || s.counter != nil || s.gauge != nil {
		panic(fmt.Sprintf("metrics: %s%s already registered", name, s.labels))
	}
	s.fn = fn
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4): families sorted by name,
// series sorted by label string, integral values rendered as integers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		r.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		srs := make([]*series, len(keys))
		for i, k := range keys {
			srs[i] = f.series[k]
		}
		r.mu.Unlock()
		for _, s := range srs {
			renderSeries(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// renderSeries appends one series' sample line(s).
func renderSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.hist != nil:
		h := s.hist
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %s\n", f.name, withLabel(s.labels, "le", formatValue(bound)), formatUint(cum))
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %s\n", f.name, withLabel(s.labels, "le", "+Inf"), formatUint(cum))
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.labels, formatValue(math.Float64frombits(h.sumBits.Load())))
		fmt.Fprintf(b, "%s_count%s %s\n", f.name, s.labels, formatUint(h.count.Load()))
	case s.fn != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatValue(s.fn()))
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatUint(s.counter.Value()))
	case s.gauge != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatValue(s.gauge.Value()))
	}
}

// withLabel splices one extra label pair into a pre-rendered label set.
func withLabel(labels, key, value string) string {
	extra := key + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatValue renders a sample value: integral values as integers (so
// counters compare byte-for-byte against printed integer stats),
// everything else in shortest-round-trip float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// checkMetricName validates a metric name against the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("metrics: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("metrics: invalid metric name %q", name)
		}
	}
	return nil
}

// checkLabelName validates a label name against [a-zA-Z_][a-zA-Z0-9_]*.
func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("metrics: empty label name")
	}
	for i, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("metrics: invalid label name %q", name)
		}
	}
	return nil
}

// renderLabels renders a label set in sorted-key order, `{k="v",...}`,
// or "" for the empty set.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if err := checkLabelName(k); err != nil {
			panic(err)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// ParseText parses a Prometheus text exposition into a flat map from
// series (exactly as rendered: `name{label="v",...}` or bare name) to
// value. Comment and blank lines are skipped; any other malformed line
// is an error. It accepts the subset WritePrometheus emits, which is
// what the scrape smoke tests verify against.
func ParseText(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last space-separated field; the series name
		// (possibly containing spaces inside quoted label values) is
		// everything before it.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("metrics: line %d: no value in %q", ln+1, line)
		}
		name, val := strings.TrimSpace(line[:cut]), line[cut+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: bad value %q: %v", ln+1, val, err)
		}
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if err := checkMetricName(base); err != nil {
			return nil, fmt.Errorf("metrics: line %d: %v", ln+1, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("metrics: line %d: duplicate series %q", ln+1, name)
		}
		out[name] = v
	}
	return out, nil
}

// SumSeries sums every series of the family (all label combinations) in
// a parsed exposition — the scrape-side aggregate for per-slot series.
func SumSeries(parsed map[string]float64, name string) float64 {
	var sum float64
	for k, v := range parsed {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}
