package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tinydir/internal/telemetry"
)

// manualClock is a test seam for Coordinator.now.
type manualClock struct{ t time.Time }

func (m *manualClock) Now() time.Time          { return m.t }
func (m *manualClock) Advance(d time.Duration) { m.t = m.t.Add(d) }
func newClock() *manualClock                   { return &manualClock{t: time.Unix(1700000000, 0)} }

// enqueue plants a pending unit directly (no blocking Do goroutine
// needed when the test drives claim/complete itself).
func enqueue(c *Coordinator, key string) *record {
	r := &record{unit: Unit{Key: key, Payload: []byte(key)}, st: statePending, done: make(chan struct{})}
	c.recs[key] = r
	c.queue = append(c.queue, key)
	return r
}

// TestCoordinatorMetrics drives the lease state machine directly with a
// manual clock and checks every counter and gauge lands on the registry.
func TestCoordinatorMetrics(t *testing.T) {
	clk := newClock()
	reg := telemetry.NewRegistry()
	c := New()
	c.now = clk.Now
	c.LeaseTTL = 10 * time.Second
	c.MaxExpiries = 2
	c.EnableMetrics(reg)

	enqueue(c, "k1")
	enqueue(c, "k2")

	// k1: claim, heartbeat, complete after 500ms.
	if _, _, _, ok, _ := c.claim("w1", nil); !ok {
		t.Fatal("claim k1")
	}
	clk.Advance(200 * time.Millisecond)
	if _, ok, _ := c.heartbeat("w1", "k1", c.Epoch(), nil); !ok {
		t.Fatal("heartbeat k1")
	}
	clk.Advance(300 * time.Millisecond)
	if err := c.complete("w1", "k1", c.Epoch(), []byte("r1"), ""); err != nil {
		t.Fatal(err)
	}
	// Duplicate identical, then conflicting.
	if err := c.complete("w2", "k1", c.Epoch(), []byte("r1"), ""); err != nil {
		t.Fatal("identical duplicate refused:", err)
	}
	if err := c.complete("w2", "k1", c.Epoch(), []byte("DIFFERENT"), ""); err == nil {
		t.Fatal("conflicting duplicate accepted")
	}
	// k2: claimed by w2, lease lapses twice -> terminal failure (MaxExpiries=2).
	for i := 0; i < 2; i++ {
		if u, _, _, ok, _ := c.claim("w2", nil); !ok || u.Key != "k2" {
			t.Fatalf("claim k2 round %d: ok=%v key=%q", i, ok, u.Key)
		}
		clk.Advance(11 * time.Second)
		c.expireLocked(clk.Now())
	}
	// k3 arrives late; w3 claims it (leaving the queue empty), then one
	// empty claim.
	enqueue(c, "k3")
	if u, _, _, ok, _ := c.claim("w3", nil); !ok || u.Key != "k3" {
		t.Fatalf("claim k3: ok=%v key=%q", ok, u.Key)
	}
	if _, _, _, ok, _ := c.claim("w3", nil); ok {
		t.Fatal("claim on empty queue succeeded")
	}

	vals := map[string]float64{}
	var wall *telemetry.HistSnapshot
	for _, s := range reg.Snapshot() {
		if s.Hist != nil {
			if s.Name == "sweepd_unit_wall_ms" {
				wall = s.Hist
			}
			continue
		}
		vals[s.Name] = s.Value
	}
	for name, want := range map[string]float64{
		"sweepd_claims_total":               4, // k1, k2 twice, k3
		"sweepd_claims_empty_total":         1,
		"sweepd_heartbeats_total":           1,
		"sweepd_completions_total":          1,
		"sweepd_duplicates_identical_total": 1,
		"sweepd_conflicts_total":            1,
		"sweepd_lease_expiries_total":       2,
		"sweepd_unit_failures_total":        1,
		"sweepd_queue_depth":                0,
		"sweepd_units_leased":               1, // k3
		"sweepd_units_done":                 1, // k1
		"sweepd_units_failed":               1, // k2
		"sweepd_units_total":                3,
		"sweepd_workers":                    3,
	} {
		if vals[name] != want {
			t.Errorf("%s = %v, want %v", name, vals[name], want)
		}
	}
	if wall == nil || wall.Count != 1 {
		t.Fatalf("unit wall hist: %+v", wall)
	}
	if wall.Sum != 500 {
		t.Errorf("unit wall sum %d ms, want 500", wall.Sum)
	}
}

// TestStragglerAndStaleDetection: three workers with controlled unit
// walls — 100ms, 120ms and 900ms means. The slow one exceeds 3x the
// 120ms median and is flagged; a worker silent past the lease TTL shows
// Stale.
func TestStragglerAndStaleDetection(t *testing.T) {
	clk := newClock()
	c := New()
	c.now = clk.Now
	c.LeaseTTL = 5 * time.Second

	walls := map[string]time.Duration{"fast": 100 * time.Millisecond, "mid": 120 * time.Millisecond, "slow": 900 * time.Millisecond}
	i := 0
	for worker, wall := range walls {
		for j := 0; j < 2; j++ { // two units each so means are real
			key := fmt.Sprintf("u%d", i)
			i++
			enqueue(c, key)
			if u, _, _, ok, _ := c.claim(worker, nil); !ok || u.Key != key {
				t.Fatalf("%s claim %s", worker, key)
			}
			clk.Advance(wall)
			if err := c.complete(worker, key, c.Epoch(), []byte("r"), ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Status()
	if st.Stragglers != 1 {
		t.Fatalf("stragglers = %d, want 1 (%+v)", st.Stragglers, st.Workers)
	}
	byName := map[string]WorkerStatus{}
	for _, w := range st.Workers {
		byName[w.Name] = w
	}
	if !byName["slow"].Straggler || byName["fast"].Straggler || byName["mid"].Straggler {
		t.Fatalf("straggler flags wrong: %+v", st.Workers)
	}
	if got := byName["slow"].MeanUnitWallMs; got != 900 {
		t.Errorf("slow mean wall %v ms, want 900", got)
	}
	if byName["slow"].Units != 2 {
		t.Errorf("slow units %d, want 2", byName["slow"].Units)
	}
	if byName["fast"].Stale {
		t.Error("fast stale immediately")
	}
	// Everyone goes silent past the TTL.
	clk.Advance(6 * time.Second)
	for _, w := range c.Status().Workers {
		if !w.Stale {
			t.Errorf("worker %s not stale after TTL of silence", w.Name)
		}
	}
}

// TestStragglerNeedsAFleet: a single worker is never a straggler — there
// is no fleet median to lag behind.
func TestStragglerNeedsAFleet(t *testing.T) {
	clk := newClock()
	c := New()
	c.now = clk.Now
	enqueue(c, "k")
	c.claim("only", nil)
	clk.Advance(10 * time.Second)
	c.complete("only", "k", c.Epoch(), []byte("r"), "")
	if st := c.Status(); st.Stragglers != 0 || st.Workers[0].Straggler {
		t.Fatalf("lone worker flagged: %+v", st.Workers)
	}
}

// TestWorkerReportPropagation runs a real worker with telemetry against
// the HTTP handler and checks its pushed report lands on the status row.
func TestWorkerReportPropagation(t *testing.T) {
	c := New()
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	done := make(chan []byte, 1)
	go func() {
		r, err := c.Do(Unit{Key: "unit1", Payload: []byte("p")})
		if err != nil {
			t.Error(err)
		}
		done <- r
	}()

	tel := NewWorkerTelemetry(nil)
	tel.StoreStats = func() (uint64, uint64) { return 7, 3 }
	w := &Worker{
		Base: srv.URL, Name: "w-tel", Poll: 10 * time.Millisecond,
		Tel: tel,
		Run: func(key string, payload []byte) ([]byte, error) { return []byte("res:" + key), nil },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go w.Loop(ctx)

	<-done
	// The completed unit's report arrives with the worker's *next* claim.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Status()
		if len(st.Workers) == 1 && st.Workers[0].Report != nil && st.Workers[0].Report.Units == 1 {
			rep := st.Workers[0].Report
			if rep.StoreHits != 7 || rep.StoreMisses != 3 {
				t.Fatalf("store stats not propagated: %+v", rep)
			}
			if rep.ExecMeanMs < 0 {
				t.Fatalf("negative exec mean: %+v", rep)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("report never propagated: %+v", st.Workers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Close()
}

// TestWorkerBackoffReconnect (resilience satellite): the coordinator
// fails the first several claims with 500s — as if restarting — and the
// worker must ride it out with backoff, log a structured line per retry,
// and still finish the sweep.
func TestWorkerBackoffReconnect(t *testing.T) {
	c := New()
	inner := c.Handler()
	var failures int32 = 4
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/claim") && atomic.AddInt32(&failures, -1) >= 0 {
			http.Error(rw, "coordinator restarting", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	var logBuf bytes.Buffer
	w := &Worker{
		Base: srv.URL, Name: "w-retry", Poll: 5 * time.Millisecond, BackoffMax: 40 * time.Millisecond,
		Logger: slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelInfo})),
		Run:    func(key string, payload []byte) ([]byte, error) { return []byte("ok"), nil },
	}

	done := make(chan error, 1)
	go func() {
		_, err := c.Do(Unit{Key: "k", Payload: nil})
		done <- err
		c.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Loop(ctx); err != nil {
		t.Fatalf("worker gave up despite backoff budget: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	var retries, recoveries int
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		switch m["msg"] {
		case "coordinator unreachable, backing off":
			retries++
			if m["worker"] != "w-retry" || m["attempt"] == nil || m["backoff"] == nil || m["err"] == nil {
				t.Fatalf("retry line missing fields: %q", line)
			}
		case "coordinator reachable again":
			recoveries++
		}
	}
	if retries != 4 {
		t.Fatalf("retry log lines = %d, want 4\n%s", retries, logBuf.String())
	}
	if recoveries != 1 {
		t.Fatalf("recovery log lines = %d, want 1\n%s", recoveries, logBuf.String())
	}
}

// TestWorkerBackoffGivesUpAtMaxErrors: a coordinator that never comes
// back still stops the worker after MaxErrors attempts.
func TestWorkerBackoffGivesUpAtMaxErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()
	w := &Worker{
		Base: srv.URL, Name: "w-doomed", Poll: time.Millisecond, BackoffMax: 2 * time.Millisecond, MaxErrors: 3,
		Run: func(string, []byte) ([]byte, error) { return nil, nil },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Loop(ctx); err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("loop error = %v, want give-up after 3 attempts", err)
	}
}

// TestBackoffSchedule pins the retry curve: poll, doubled per failure,
// capped at BackoffMax.
func TestBackoffSchedule(t *testing.T) {
	w := &Worker{Poll: 100 * time.Millisecond, BackoffMax: 1 * time.Second}
	want := []time.Duration{100, 200, 400, 800, 1000, 1000}
	for i, ms := range want {
		if got := w.backoff(i + 1); got != ms*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, ms*time.Millisecond)
		}
	}
}

// TestCoordinatorOffAllocSteadyState pins the nil-off guarantee on the
// coordinator's hottest repeated op: with telemetry never enabled, a
// heartbeat allocates nothing — the tel hooks are nil-receiver no-ops.
func TestCoordinatorOffAllocSteadyState(t *testing.T) {
	clk := newClock()
	c := New()
	c.now = clk.Now
	enqueue(c, "k")
	c.claim("w", nil)
	allocs := testing.AllocsPerRun(500, func() {
		if _, ok, _ := c.heartbeat("w", "k", c.Epoch(), nil); !ok {
			t.Fatal("lease lost")
		}
	})
	if allocs != 0 {
		t.Fatalf("heartbeat with telemetry off allocates %.1f/op, want 0", allocs)
	}
}

// TestLeaseExpiryLogAttrs: a lapsed lease is logged as one structured
// record carrying the full unit key and the worker that lost it, the
// attributes that join the coordinator's log with the worker's.
func TestLeaseExpiryLogAttrs(t *testing.T) {
	var logBuf bytes.Buffer
	clk := newClock()
	c := New()
	c.now = clk.Now
	c.LeaseTTL = time.Second
	c.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	key := strings.Repeat("9f", 32) // a full-length store key
	enqueue(c, key)
	if u, _, _, ok, _ := c.claim("w-slow", nil); !ok || u.Key != key {
		t.Fatalf("claim: %+v ok=%v", u, ok)
	}
	clk.Advance(2 * time.Second)
	if st := c.Status(); st.Pending != 1 {
		t.Fatalf("lease did not expire: %+v", st)
	}
	var expiries int
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		if m["msg"] != "lease expired, requeued" {
			continue
		}
		expiries++
		if m["level"] != "INFO" || m["unit"] != key || m["worker"] != "w-slow" {
			t.Fatalf("expiry record lacks level/unit/worker: %q", line)
		}
	}
	if expiries != 1 {
		t.Fatalf("expiry records = %d, want 1\n%s", expiries, logBuf.String())
	}
}

// TestUnitLogOffAllocFree: a per-unit line below the handler's level
// costs no allocation, so debug claim/done lines are free by default.
func TestUnitLogOffAllocFree(t *testing.T) {
	l := slog.New(slog.NewJSONHandler(&bytes.Buffer{}, &slog.HandlerOptions{Level: slog.LevelWarn}))
	key := strings.Repeat("ab", 32)
	allocs := testing.AllocsPerRun(500, func() {
		logUnit(l, slog.LevelDebug, "unit done", key, "w", slog.Int("attempt", 1))
	})
	if allocs != 0 {
		t.Fatalf("disabled per-unit log line allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkCoordinatorNoTelemetry measures the full claim+complete cycle
// with telemetry off — the baseline the nil-off discipline protects.
func BenchmarkCoordinatorNoTelemetry(b *testing.B) {
	benchClaimComplete(b, false)
}

// BenchmarkCoordinatorTelemetry is the same cycle with metrics enabled,
// for eyeballing the per-event instrument cost.
func BenchmarkCoordinatorTelemetry(b *testing.B) {
	benchClaimComplete(b, true)
}

func benchClaimComplete(b *testing.B, withMetrics bool) {
	clk := newClock()
	c := New()
	c.now = clk.Now
	if withMetrics {
		c.EnableMetrics(telemetry.NewRegistry())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i)
		enqueue(c, key)
		c.claim("w", nil)
		c.complete("w", key, c.Epoch(), nil, "")
	}
}
