package runstore

import (
	"strings"
	"testing"

	"tinydir/internal/telemetry"
)

// memBackend is a trivial in-memory Backend for metric tests.
type memBackend struct{ m map[string][]byte }

func newMem() *memBackend { return &memBackend{m: map[string][]byte{}} }

func (b *memBackend) Get(kind, key string) ([]byte, bool, error) {
	v, ok := b.m[kind+"/"+key]
	return v, ok, nil
}
func (b *memBackend) Put(kind, key string, data []byte, replace bool) error {
	b.m[kind+"/"+key] = data
	return nil
}
func (b *memBackend) Keys(kind string) ([]Info, error) { return nil, nil }
func (b *memBackend) Delete(kind, key string) error {
	delete(b.m, kind+"/"+key)
	return nil
}

// TestInstrumentNilIdentity pins the off-state contract: a nil *Metrics
// must hand back the very same Backend value — no wrapper frame, no
// changed instruction stream.
func TestInstrumentNilIdentity(t *testing.T) {
	if NewMetrics(nil) != nil {
		t.Fatal("NewMetrics(nil) did not return the nil off state")
	}
	var b Backend = newMem()
	if got := (*Metrics)(nil).Instrument(b, "dir"); got != b {
		t.Fatal("Instrument with telemetry off returned a different backend value")
	}
}

// TestInstrumentedOps: every op lands one latency observation labeled
// (backend, op); payload-carrying ops record bytes; errors count.
func TestInstrumentedOps(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	b := m.Instrument(newMem(), "dir")

	if err := b.Put("results", "k1", []byte("hello"), false); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Get("results", "k1"); !ok {
		t.Fatal("get missed")
	}
	if _, err := b.Keys("results"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("results", "k1"); err != nil {
		t.Fatal(err)
	}

	counts := map[string]uint64{}
	var putBytes uint64
	for _, s := range reg.Snapshot() {
		if s.Name == "runstore_op_duration_us" && s.Labels["backend"] == "dir" {
			counts[s.Labels["op"]] = s.Hist.Count
		}
		if s.Name == "runstore_op_bytes" && s.Labels["op"] == "put" {
			putBytes = s.Hist.Sum
		}
	}
	for _, op := range []string{"get", "put", "keys", "delete"} {
		if counts[op] != 1 {
			t.Errorf("op %s observed %d times, want 1", op, counts[op])
		}
	}
	if putBytes != 5 {
		t.Errorf("put bytes sum %d, want 5", putBytes)
	}
}

// TestLRUHotPathAllocsUnchanged pins the nil-off guarantee at the
// allocation level: a cache-hit Get costs exactly the one allocation it
// always has (the composite cache-key concat) with telemetry off.
func TestLRUHotPathAllocsUnchanged(t *testing.T) {
	mk := func(instrument bool) Backend {
		lru := NewLRU(newMem(), 1<<20)
		lru.Put("results", "hot", []byte("payload"), false)
		if !instrument {
			return lru
		}
		return NewMetrics(telemetry.NewRegistry()).Instrument(lru, "lru")
	}
	bare := mk(false)
	plain := testing.AllocsPerRun(200, func() {
		if _, ok, _ := bare.Get("results", "hot"); !ok {
			t.Fatal("miss")
		}
	})
	if plain != 1 { // the pre-telemetry cost: cacheKey's string concat
		t.Fatalf("uninstrumented LRU hit allocates %.1f/op, want 1", plain)
	}
	// The instrumented wrapper may pay for its clock reads and histogram
	// work, but the LRU underneath is byte-identical; unwrap and verify.
	ins := mk(true).(*instrumented)
	if _, ok := ins.Unwrap().(*LRU); !ok {
		t.Fatal("instrumented wrapper does not expose the inner LRU")
	}
}

// TestInstrumentedExposition: the wired series — per-op latency and a
// Verified layer's func-backed integrity counters — render as valid
// Prometheus text lines.
func TestInstrumentedExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewMetrics(reg).Instrument(NewVerified(newMem()), "verified")
	b.Put("results", "k", []byte("x"), false)
	b.Get("results", "k")

	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE runstore_op_duration_us histogram",
		`runstore_op_duration_us_count{backend="verified",op="get"} 1`,
		`runstore_integrity_verified_total{backend="verified"} 1`,
		`runstore_integrity_quarantines_total{backend="verified"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}
