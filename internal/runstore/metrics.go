package runstore

// Store-layer telemetry. Every backend can be wrapped with per-op
// latency, byte-count and error series labeled by backend kind, and the
// LRU tier's hit/miss/eviction counters are exported to the registry —
// read at scrape time from the counters the LRU already keeps, so the
// hot path is untouched.
//
// The off state is the strongest possible: Instrument on a nil *Metrics
// returns the backend unchanged (the same interface value), so with
// telemetry off the store executes the identical instruction stream it
// always has — no wrapper frame, no nil-checked branch. This is pinned
// by TestInstrumentNilIdentity and the alloc tests in metrics_test.go.

import (
	"time"

	"tinydir/internal/telemetry"
)

// Metric names exported by the store layer (EXPERIMENTS.md has the
// full reference table).
const (
	metricOpDuration = "runstore_op_duration_us"
	metricOpBytes    = "runstore_op_bytes"
	metricOpErrors   = "runstore_op_errors_total"
	metricCacheHits  = "runstore_cache_hits_total"
	metricCacheMiss  = "runstore_cache_misses_total"
	metricCacheEvict = "runstore_cache_evictions_total"
	metricCacheBytes = "runstore_cache_bytes"

	metricIntegrityVerified    = "runstore_integrity_verified_total"
	metricIntegrityQuarantines = "runstore_integrity_quarantines_total"
	metricScrubScanned         = "runstore_scrub_scanned_total"
	metricScrubQuarantined     = "runstore_scrub_quarantined_total"
)

// Metrics is the store layer's handle on a telemetry registry. A nil
// *Metrics is "telemetry off" and instruments nothing.
type Metrics struct {
	reg *telemetry.Registry
}

// NewMetrics binds the store metric families to reg (nil reg yields a
// nil *Metrics, the off state).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{reg: reg}
}

// opInstr is one operation's resolved series (resolved once at
// instrumentation time; per-op cost is a clock read and two-three
// lock-guarded updates).
type opInstr struct {
	dur   *telemetry.Hist
	bytes *telemetry.Hist
	errs  *telemetry.Counter
}

func (oi opInstr) observe(start time.Time, n int, err error) {
	oi.dur.Observe(uint64(time.Since(start).Microseconds()))
	if n > 0 {
		oi.bytes.Observe(uint64(n))
	}
	if err != nil {
		oi.errs.Inc()
	}
}

// Instrument wraps b with per-op telemetry labeled backend=kind
// (conventionally "dir", "lru", "http" or "verified"). When the backend
// itself — not a deeper layer, which gets its own Instrument call — is
// an LRU tier or a Verified integrity wrapper, its counters are also
// exported, func-backed. A nil receiver returns b unchanged.
func (m *Metrics) Instrument(b Backend, kind string) Backend {
	if m == nil {
		return b
	}
	op := func(name string) opInstr {
		return opInstr{
			dur:   m.reg.Hist(metricOpDuration, "store operation latency in microseconds", "backend", kind, "op", name),
			bytes: m.reg.Hist(metricOpBytes, "store operation payload bytes", "backend", kind, "op", name),
			errs:  m.reg.Counter(metricOpErrors, "store operations that returned an error", "backend", kind, "op", name),
		}
	}
	switch t := b.(type) {
	case *LRU:
		m.exportLRU(t, kind)
	case *Verified:
		m.exportVerified(t, kind)
	}
	return &instrumented{
		b:   b,
		get: op("get"), put: op("put"), stat: op("stat"),
		keys: op("keys"), del: op("delete"),
	}
}

// exportVerified publishes a Verified wrapper's integrity and scrub
// counters, read at scrape time (the verify path is untouched).
func (m *Metrics) exportVerified(v *Verified, kind string) {
	m.reg.CounterFunc(metricIntegrityVerified, "gets whose seal matched their bytes",
		func() uint64 { return v.Counters().Verified }, "backend", kind)
	m.reg.CounterFunc(metricIntegrityQuarantines, "corrupt entries quarantined and missed",
		func() uint64 { return v.Counters().Quarantined }, "backend", kind)
	m.reg.CounterFunc(metricScrubScanned, "entries examined by scrub passes",
		func() uint64 { return v.Counters().ScrubScanned }, "backend", kind)
	m.reg.CounterFunc(metricScrubQuarantined, "corrupt entries quarantined by scrub passes",
		func() uint64 { return v.Counters().ScrubQuarantined }, "backend", kind)
}

// exportLRU publishes the LRU's own counters; reads happen at scrape
// time, so Get/Put stay byte-for-byte the uninstrumented code path.
func (m *Metrics) exportLRU(l *LRU, kind string) {
	m.reg.CounterFunc(metricCacheHits, "cache-tier gets answered from memory",
		func() uint64 { h, _, _ := l.Counters(); return h }, "backend", kind)
	m.reg.CounterFunc(metricCacheMiss, "cache-tier gets that consulted the inner backend",
		func() uint64 { _, mi, _ := l.Counters(); return mi }, "backend", kind)
	m.reg.CounterFunc(metricCacheEvict, "cache-tier entries evicted to hold the byte budget",
		func() uint64 { _, _, e := l.Counters(); return e }, "backend", kind)
	m.reg.GaugeFunc(metricCacheBytes, "cache-tier resident bytes",
		func() float64 { return float64(l.Size()) }, "backend", kind)
}

// instrumented decorates a Backend with the per-op series.
type instrumented struct {
	b                         Backend
	get, put, stat, keys, del opInstr
}

// Unwrap exposes the inner backend (tests, composition checks).
func (i *instrumented) Unwrap() Backend { return i.b }

// Get implements Backend.
func (i *instrumented) Get(kind, key string) ([]byte, bool, error) {
	start := time.Now()
	b, ok, err := i.b.Get(kind, key)
	i.get.observe(start, len(b), err)
	return b, ok, err
}

// Put implements Backend.
func (i *instrumented) Put(kind, key string, data []byte, replace bool) error {
	start := time.Now()
	err := i.b.Put(kind, key, data, replace)
	i.put.observe(start, len(data), err)
	return err
}

// Stat implements Backend.
func (i *instrumented) Stat(kind, key string) (Info, bool, error) {
	start := time.Now()
	info, ok, err := i.b.Stat(kind, key)
	i.stat.observe(start, 0, err)
	return info, ok, err
}

// Keys implements Backend.
func (i *instrumented) Keys(kind string) ([]Info, error) {
	start := time.Now()
	infos, err := i.b.Keys(kind)
	i.keys.observe(start, 0, err)
	return infos, err
}

// Delete implements Backend.
func (i *instrumented) Delete(kind, key string) error {
	start := time.Now()
	err := i.b.Delete(kind, key)
	i.del.observe(start, 0, err)
	return err
}
