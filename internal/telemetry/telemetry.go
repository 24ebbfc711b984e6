// Package telemetry is the fleet-wide metrics layer of the sweep
// service: a dependency-free registry of counters, gauges and
// log2-bucketed histograms with Prometheus text-format exposition. The
// fleet's logs go through the standard library's log/slog.
//
// The in-sim observability layer (internal/obs, DESIGN.md §9) answers
// "what did this simulation do, cycle by cycle"; telemetry answers
// "what is this *service* doing, op by op" — store latencies, queue
// depths, worker health. The two share one histogram: a Hist here is an
// obs.Hist behind a mutex, so quantiles are exact functions of the
// counts (deterministic, merge-friendly) rather than estimates.
//
// Everything is nil-safe in the obs recorder's style: every method on a
// nil *Counter, *Hist or *Registry is a no-op behind one
// predictable branch, so instrumented call sites hold possibly-nil
// series pointers and never test them. Layers that need the stronger
// "identical instruction stream when off" guarantee (the runstore
// backends) instrument by wrapping, and skip the wrapper entirely when
// telemetry is off.
//
// Registration is idempotent: asking for the same (name, labels) series
// twice returns the same instrument, so independent components can
// share a family without coordination. Exposition is deterministic —
// families sort by name, series by label signature — which keeps
// /metrics scrapes diffable in tests and CI artifacts.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tinydir/internal/obs"
)

// Kind is a metric family's type as exposed in the # TYPE line.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing uint64. The zero value is
// usable; a nil Counter ignores all updates.
type Counter struct {
	v  atomic.Uint64
	fn func() uint64 // read-side override (func-backed export)
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Hist is a concurrency-safe log2-bucketed histogram: an obs.Hist (the
// simulator's own histogram, so /metrics and epoch CSVs quantize
// identically) behind a mutex — service-layer ops are microseconds
// apart, not nanoseconds, so a lock is the simple correct choice. A nil
// Hist ignores all observations.
type Hist struct {
	mu sync.Mutex
	h  obs.Hist
}

// Observe adds one value.
func (h *Hist) Observe(v uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// HistSnapshot is a consistent copy of a histogram with its derived
// quantiles (obs.Hist.Quantile: bucket upper bounds clamped to the
// exact max).
type HistSnapshot struct {
	obs.Hist
	P50, P95, P99 uint64
}

// Snapshot returns a consistent copy with quantiles filled in. Safe on
// a nil Hist (all zeros).
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	h.mu.Lock()
	s.Hist = h.h
	h.mu.Unlock()
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// series is one labeled instrument inside a family.
type series struct {
	labels  []string // alternating name, value — as registered
	sig     string   // rendered {a="b",...} signature (sort key)
	counter *Counter
	gauge   func() float64 // registered by GaugeFunc
	hist    *Hist
}

// family is one exposition family: a name, a type, and its series.
type family struct {
	name, help string
	kind       Kind
	series     map[string]*series // sig -> series
}

// Registry holds metric families and serves them in Prometheus text
// format. The zero value is not usable; create with NewRegistry. All
// methods are safe for concurrent use, and every lookup/registration
// method on a nil *Registry returns a nil instrument — so "telemetry
// off" is spelled by passing a nil registry down the stack.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelSig renders alternating label pairs into the exposition
// signature `{k="v",k2="v2"}` with keys in the given order (callers use
// one fixed order per family; the signature doubles as the series key).
func labelSig(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the series for (name, labels) in a family of
// the given kind, panicking on a kind conflict (a programming error —
// two components disagreeing about what a name means must fail loudly,
// not serve a corrupt exposition).
func (r *Registry) lookup(name, help string, kind Kind, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: %s registered with odd label list %q", name, labels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	sig := labelSig(labels)
	s := f.series[sig]
	if s == nil {
		s = &series{labels: append([]string(nil), labels...), sig: sig}
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindHistogram:
			s.hist = &Hist{}
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns (registering on first use) the counter named name
// with the given alternating label pairs, e.g.
//
//	reg.Counter("runstore_cache_hits_total", "…", "backend", "lru")
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindCounter, labels).counter
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the zero-overhead export path for components that
// already keep their own counters (the runstore LRU).
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, KindCounter, labels).counter.fn = fn
}

// GaugeFunc registers a gauge read from fn at exposition time, the only
// kind of gauge the registry keeps.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.lookup(name, help, KindGauge, labels).gauge = fn
}

// Hist returns (registering on first use) the histogram named name.
func (r *Registry) Hist(name, help string, labels ...string) *Hist {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, KindHistogram, labels).hist
}

// SeriesSnapshot is one series' state in a Registry snapshot: counters
// and gauges carry Value, histograms carry Hist.
type SeriesSnapshot struct {
	Name   string
	Kind   Kind
	Labels map[string]string
	Value  float64
	Hist   *HistSnapshot
}

// Label returns one label's value ("" when absent).
func (s SeriesSnapshot) Label(key string) string { return s.Labels[key] }

// Snapshot returns every series' current state, family-name then
// label-signature sorted (the exposition order). Nil registry: nil.
func (r *Registry) Snapshot() []SeriesSnapshot {
	if r == nil {
		return nil
	}
	var out []SeriesSnapshot
	for _, f := range r.sortedFamilies() {
		for _, s := range f.sorted() {
			ss := SeriesSnapshot{Name: f.name, Kind: f.kind, Labels: map[string]string{}}
			for i := 0; i+1 < len(s.labels); i += 2 {
				ss.Labels[s.labels[i]] = s.labels[i+1]
			}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.counter.Value())
			case KindGauge:
				ss.Value = s.gauge()
			case KindHistogram:
				h := s.hist.Snapshot()
				ss.Hist = &h
			}
			out = append(out, ss)
		}
	}
	return out
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sorted() []*series {
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })
	return ss
}

// WriteProm emits the registry in Prometheus text exposition format
// (text/plain; version=0.0.4). Histograms emit cumulative _bucket
// series at their occupied log2 bounds plus +Inf, and _sum/_count.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sorted() {
			if err := writePromSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.sig, s.counter.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.sig, formatFloat(s.gauge()))
		return err
	}
	h := s.hist.Snapshot()
	var cum uint64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		cum += n
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, histSig(s.sig, fmt.Sprintf("%d", obs.BucketHigh(i))), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, histSig(s.sig, "+Inf"), h.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.name, s.sig, h.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.sig, h.Count)
	return err
}

// histSig splices the le label into an existing label signature.
func histSig(sig, le string) string {
	if sig == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return sig[:len(sig)-1] + fmt.Sprintf(",le=%q", le) + "}"
}

// formatFloat renders gauges without exponent noise for the common
// integral case.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Handler serves the registry at its mount point (conventionally
// /metrics) in text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w)
	})
}
