package obs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// L is one metric label (key/value pair). Label sets are fixed at
// registration; scrapes never build label strings on the fly.
type L struct {
	Key, Value string
}

type metricKind int

const (
	kindGauge metricKind = iota
	kindCounter
	kindHist
	kindRateWindow
	kindValueWindow
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHist:
		return "histogram"
	default:
		return "gauge"
	}
}

// entry is one registered series: a name + label set bound to a value
// source (pull function, histogram, or window).
type entry struct {
	name, help string
	kind       metricKind
	labelStr   string // pre-rendered {k="v",...} or ""
	labels     []L
	gaugeFn    func() float64
	counterFn  func() uint64
	hist       *Histogram
	histScale  float64 // histogram unit → exposed unit (1, or 1e-9 for ns → s)
	win        *Window
	src        func() uint64 // cumulative source feeding a rate window
}

// Group is a named sub-registry. The engine registers its series in
// one group so the adaptive loop — which builds a fresh engine per
// segment — can Clear and re-register without disturbing process-level
// series.
type Group struct {
	r       *Registry
	name    string
	entries []*entry
}

// Registry holds labeled metric series and renders them as Prometheus
// text exposition and as a JSON status snapshot. All methods are safe
// for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	groups map[string]*Group
	order  []string
	span   time.Duration
	start  time.Time

	tickMu sync.Mutex // serializes rate-window sampling
}

// NewRegistry builds a registry whose rolling windows answer up to
// span back (default 60s when span <= 0).
func NewRegistry(span time.Duration) *Registry {
	if span <= 0 {
		span = 60 * time.Second
	}
	return &Registry{groups: map[string]*Group{}, span: span, start: time.Now()}
}

// Span returns the configured maximum rolling-window span.
func (r *Registry) Span() time.Duration { return r.span }

// windowSpans returns the spans rolling metrics are published over:
// 10s and the configured span (deduplicated, clamped).
func (r *Registry) windowSpans() []time.Duration {
	short := 10 * time.Second
	if r.span <= short {
		return []time.Duration{r.span}
	}
	return []time.Duration{short, r.span}
}

// Group returns the named group, creating it on first use.
func (r *Registry) Group(name string) *Group {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.groups[name]; ok {
		return g
	}
	g := &Group{r: r, name: name}
	r.groups[name] = g
	r.order = append(r.order, name)
	return g
}

// Clear drops every series in the group (the registry keeps the group
// itself, so re-registration reuses it).
func (g *Group) Clear() {
	g.r.mu.Lock()
	g.entries = nil
	g.r.mu.Unlock()
}

func renderLabels(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func (g *Group) add(e *entry) {
	g.r.mu.Lock()
	g.entries = append(g.entries, e)
	g.r.mu.Unlock()
}

// Gauge registers a pull-based gauge: fn is called at scrape time.
func (g *Group) Gauge(name, help string, labels []L, fn func() float64) {
	g.add(&entry{name: name, help: help, kind: kindGauge, labels: labels, labelStr: renderLabels(labels), gaugeFn: fn})
}

// Counter registers a pull-based monotonic counter over an existing
// cumulative source (typically an engine atomic).
func (g *Group) Counter(name, help string, labels []L, fn func() uint64) {
	g.add(&entry{name: name, help: help, kind: kindCounter, labels: labels, labelStr: renderLabels(labels), counterFn: fn})
}

// Histogram registers and returns a push-based histogram series.
func (g *Group) Histogram(name, help string, labels []L) *Histogram {
	return g.histogram(name, help, labels, 1)
}

// DurationHistogram registers a histogram that is fed durations in
// nanoseconds and exposed in seconds, the Prometheus base unit. The
// bucket layout resolves values of 1 and up, so a histogram fed seconds
// directly would lump every sub-second duration into its first bucket;
// observing nanoseconds keeps ±12.5% resolution from 1 ns up.
func (g *Group) DurationHistogram(name, help string, labels []L) *Histogram {
	return g.histogram(name, help, labels, 1e-9)
}

func (g *Group) histogram(name, help string, labels []L, scale float64) *Histogram {
	h := NewHistogram()
	g.add(&entry{name: name, help: help, kind: kindHist, labels: labels, labelStr: renderLabels(labels), hist: h, histScale: scale})
	return h
}

// RateWindow registers a rolling event-rate metric fed from the
// cumulative source src (sampled once per second by Tick); it renders
// as a gauge family with a window label per published span.
func (g *Group) RateWindow(name, help string, labels []L, src func() uint64) *Window {
	w := NewWindow(g.r.span, false)
	g.add(&entry{name: name, help: help, kind: kindRateWindow, labels: labels, labelStr: renderLabels(labels), win: w, src: src})
	return w
}

// ValueWindow registers a rolling value distribution (Observe-fed);
// it renders as a gauge family with window and quantile labels.
func (g *Group) ValueWindow(name, help string, labels []L) *Window {
	w := NewWindow(g.r.span, true)
	g.add(&entry{name: name, help: help, kind: kindValueWindow, labels: labels, labelStr: renderLabels(labels), win: w})
	return w
}

// Tick samples every rate window from its cumulative source. The
// server calls it once per second and before every scrape; calls are
// serialized and idempotent within a second.
func (r *Registry) Tick() {
	r.tickMu.Lock()
	defer r.tickMu.Unlock()
	for _, e := range r.snapshotEntries() {
		if e.kind == kindRateWindow && e.src != nil {
			e.win.Sample(e.src())
		}
	}
}

// snapshotEntries copies the current entry list under the read lock,
// sorted by (name, labels) for deterministic rendering.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.RLock()
	var out []*entry
	for _, name := range r.order {
		out = append(out, r.groups[name].entries...)
	}
	r.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labelStr < out[j].labelStr
	})
	return out
}

// Status returns a JSON-encodable snapshot of every series: scalar
// values, histogram summaries (count/sum/p50/p90/p99) and rolling
// rates/quantiles per published span.
func (r *Registry) Status() map[string]any {
	series := []map[string]any{}
	for _, e := range r.snapshotEntries() {
		row := map[string]any{"name": e.name}
		if e.labelStr != "" {
			row["labels"] = e.labelStr
		}
		switch e.kind {
		case kindGauge:
			row["value"] = e.gaugeFn()
		case kindCounter:
			row["value"] = e.counterFn()
		case kindHist:
			s := e.hist.Snapshot()
			row["count"] = s.Count
			row["sum"] = s.Sum * e.histScale
			row["p50"] = s.Quantile(0.50) * e.histScale
			row["p90"] = s.Quantile(0.90) * e.histScale
			row["p99"] = s.Quantile(0.99) * e.histScale
		case kindRateWindow:
			rates := map[string]float64{}
			for _, span := range r.windowSpans() {
				rates[span.String()] = e.win.Rate(span)
			}
			row["rate"] = rates
		case kindValueWindow:
			qs := map[string]map[string]float64{}
			for _, span := range r.windowSpans() {
				qs[span.String()] = map[string]float64{
					"p50": e.win.Quantile(span, 0.50),
					"p90": e.win.Quantile(span, 0.90),
					"p99": e.win.Quantile(span, 0.99),
				}
			}
			row["quantiles"] = qs
		}
		series = append(series, row)
	}
	return map[string]any{
		"uptime_seconds": time.Since(r.start).Seconds(),
		"series":         series,
	}
}
