package telemetry

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Hist
	h.Observe(9)
	if s := h.Snapshot(); s.Count != 0 || s.P99 != 0 {
		t.Fatal("nil hist has samples")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Hist("x", "") != nil {
		t.Fatal("nil registry returned a live instrument")
	}
	r.CounterFunc("x", "", func() uint64 { return 1 })
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
	if err := r.WriteProm(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "h", "backend", "lru")
	b := r.Counter("hits_total", "h", "backend", "lru")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	other := r.Counter("hits_total", "h", "backend", "dir")
	if other == a {
		t.Fatal("distinct labels share a series")
	}
	a.Inc()
	a.Inc()
	if a.Value() != 2 || other.Value() != 0 {
		t.Fatalf("counter values: %d, %d", a.Value(), other.Value())
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("x_total", "", func() float64 { return 0 })
}

func TestHistQuantilesMatchObsBucketing(t *testing.T) {
	h := &Hist{}
	// 10 samples in [1,1], 10 in [8,15] — p50 must be the first bucket's
	// upper bound (1), p95/p99 the second's (15), max exact.
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(12)
	}
	s := h.Snapshot()
	if s.Count != 20 || s.Sum != 10+120 || s.Max != 12 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.P50 != 1 {
		t.Fatalf("p50 = %d, want 1", s.P50)
	}
	// Bucket upper bound is 15 but the exact max 12 caps the quantile.
	if s.P95 != 12 || s.P99 != 12 {
		t.Fatalf("p95/p99 = %d/%d, want 12/12", s.P95, s.P99)
	}
	if m := s.Mean(); m != 6.5 {
		t.Fatalf("mean = %v, want 6.5", m)
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		r.Counter("store_hits_total", "cache hits", "backend", "lru").Inc()
	}
	for i := 0; i < 2; i++ {
		r.Counter("store_hits_total", "cache hits", "backend", "dir").Inc()
	}
	r.GaugeFunc("queue_depth", "pending units", func() float64 { return 7 })
	r.GaugeFunc("workers", "fleet size", func() float64 { return 3 })
	h := r.Hist("op_us", "op latency", "op", "get")
	h.Observe(0)
	h.Observe(3)
	h.Observe(100)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := []string{
		"# TYPE op_us histogram",
		`op_us_bucket{op="get",le="0"} 1`,
		`op_us_bucket{op="get",le="3"} 2`,
		`op_us_bucket{op="get",le="127"} 3`,
		`op_us_bucket{op="get",le="+Inf"} 3`,
		`op_us_sum{op="get"} 103`,
		`op_us_count{op="get"} 3`,
		"# TYPE queue_depth gauge",
		"queue_depth 7",
		"# TYPE store_hits_total counter",
		`store_hits_total{backend="dir"} 2`,
		`store_hits_total{backend="lru"} 5`,
		"# TYPE workers gauge",
		"workers 3",
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q\n---\n%s", w, out)
		}
	}
	// Families sorted by name, series by label signature — a second
	// render must be byte-identical.
	var b2 strings.Builder
	r.WriteProm(&b2)
	if b.String() != b2.String() {
		t.Fatal("exposition not deterministic")
	}
	if strings.Index(out, "# TYPE op_us") > strings.Index(out, "# TYPE queue_depth") {
		t.Fatal("families not name-sorted")
	}
}

func TestCounterFuncReadsLive(t *testing.T) {
	r := NewRegistry()
	var v uint64 = 10
	r.CounterFunc("hits_total", "", func() uint64 { return v }, "backend", "lru")
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 10 {
		t.Fatalf("snapshot: %+v", snap)
	}
	v = 25
	if s := r.Snapshot(); s[0].Value != 25 {
		t.Fatalf("func-backed counter stale: %v", s[0].Value)
	}
	if s := r.Snapshot(); s[0].Labels["backend"] != "lru" {
		t.Fatalf("labels: %+v", s[0].Labels)
	}
}

func TestHandlerServesTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "c_total 1") {
		t.Fatalf("body: %q", b.String())
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Hist("lat_us", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(uint64(j))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter: %d", c.Value())
	}
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("hist count: %d", s.Count)
	}
}
