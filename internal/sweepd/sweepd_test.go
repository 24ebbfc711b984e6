package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startCoord serves a coordinator over httptest, as tinydir mounts it.
func startCoord(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(c.Close)
	return srv
}

// submit runs Do on a goroutine and returns a channel with its outcome.
type doResult struct {
	b   []byte
	err error
}

func submit(c *Coordinator, u Unit) chan doResult {
	ch := make(chan doResult, 1)
	go func() {
		b, err := c.Do(u)
		ch <- doResult{b, err}
	}()
	return ch
}

// TestExactlyOnceAcrossWorkers: two workers drain a queue of units; every
// unit is executed exactly once and every Do gets its worker's result.
func TestExactlyOnceAcrossWorkers(t *testing.T) {
	c := New()
	srv := startCoord(t, c)

	const n = 20
	var mu sync.Mutex
	executed := map[string]int{}
	mkWorker := func(name string) *Worker {
		return &Worker{
			Base: srv.URL,
			Name: name,
			Poll: 5 * time.Millisecond,
			Run: func(key string, payload []byte) ([]byte, error) {
				mu.Lock()
				executed[key]++
				mu.Unlock()
				return append([]byte("done:"), payload...), nil
			},
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	results := make([]chan doResult, n)
	for i := 0; i < n; i++ {
		results[i] = submit(c, Unit{Key: fmt.Sprintf("unit%02d", i), Payload: []byte{byte(i)}})
	}
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if err := mkWorker(name).Loop(ctx); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name)
	}

	for i, ch := range results {
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("unit %d: %v", i, r.err)
			}
			want := append([]byte("done:"), byte(i))
			if !bytes.Equal(r.b, want) {
				t.Fatalf("unit %d: result %q, want %q", i, r.b, want)
			}
		case <-ctx.Done():
			t.Fatalf("unit %d never completed", i)
		}
	}
	c.Close() // sweep over: workers' next claim answers 410 and they exit
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(executed) != n {
		t.Fatalf("executed %d distinct units, want %d", len(executed), n)
	}
	for key, count := range executed {
		if count != 1 {
			t.Errorf("unit %s executed %d times", key, count)
		}
	}
	st := c.Status()
	if st.Done != n || st.Failed != 0 {
		t.Fatalf("status: %+v", st)
	}
}

// TestLeaseExpiryRequeue: a worker that claims a unit and dies (never
// heartbeats, never completes) loses the lease; the unit is requeued and
// a live worker completes it exactly once.
func TestLeaseExpiryRequeue(t *testing.T) {
	c := New()
	c.LeaseTTL = 50 * time.Millisecond
	srv := startCoord(t, c)

	done := submit(c, Unit{Key: "contested0", Payload: []byte("p")})

	// The blackhole worker claims over raw HTTP and vanishes.
	body, _ := json.Marshal(claimRequest{Worker: "blackhole"})
	resp, err := http.Post(srv.URL+"/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cl claimResponse
	if err := json.NewDecoder(resp.Body).Decode(&cl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cl.Key != "contested0" {
		t.Fatalf("blackhole claimed %q", cl.Key)
	}

	var runs int32
	live := &Worker{
		Base: srv.URL,
		Name: "live",
		Poll: 10 * time.Millisecond,
		Run: func(key string, payload []byte) ([]byte, error) {
			atomic.AddInt32(&runs, 1)
			return []byte("ok"), nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	loopDone := make(chan error, 1)
	go func() { loopDone <- live.Loop(ctx) }()

	select {
	case r := <-done:
		if r.err != nil || string(r.b) != "ok" {
			t.Fatalf("unit outcome after requeue: %q err=%v", r.b, r.err)
		}
	case <-ctx.Done():
		t.Fatal("requeued unit never completed")
	}
	c.Close()
	if err := <-loopDone; err != nil {
		t.Fatalf("live worker: %v", err)
	}
	if n := atomic.LoadInt32(&runs); n != 1 {
		t.Fatalf("unit ran %d times, want exactly 1", n)
	}
	st := c.Status()
	if st.Done != 1 {
		t.Fatalf("status after requeue: %+v", st)
	}
}

// TestDuplicateCompletion: a worker whose lease expired but finished
// anyway delivers a byte-identical duplicate (acknowledged) — while a
// differing duplicate is refused with 409.
func TestDuplicateCompletion(t *testing.T) {
	c := New()
	srv := startCoord(t, c)
	done := submit(c, Unit{Key: "dup0", Payload: nil})

	post := func(req doneRequest) int {
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/done", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	ep := claimOne(t, srv.URL, "w1").Epoch

	if code := post(doneRequest{Worker: "w1", Key: "dup0", Epoch: ep, Result: []byte("r")}); code != http.StatusNoContent {
		t.Fatalf("first completion: %d", code)
	}
	if r := <-done; r.err != nil || string(r.b) != "r" {
		t.Fatalf("Do outcome: %q err=%v", r.b, r.err)
	}
	// Identical duplicate (the expired-lease worker finishing late).
	if code := post(doneRequest{Worker: "w2", Key: "dup0", Epoch: ep, Result: []byte("r")}); code != http.StatusNoContent {
		t.Fatalf("identical duplicate not acknowledged: %d", code)
	}
	// Differing duplicate: nondeterminism, refused loudly.
	if code := post(doneRequest{Worker: "w3", Key: "dup0", Epoch: ep, Result: []byte("DIFFERENT")}); code != http.StatusConflict {
		t.Fatalf("differing duplicate not refused: %d", code)
	}
}

func claimOne(t *testing.T, base, worker string) claimResponse {
	t.Helper()
	body, _ := json.Marshal(claimRequest{Worker: worker})
	resp, err := http.Post(base+"/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim: %d", resp.StatusCode)
	}
	var cl claimResponse
	if err := json.NewDecoder(resp.Body).Decode(&cl); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestWorkerFailureFailsUnit: a worker-reported error is deterministic —
// the unit fails immediately rather than being retried on every worker.
func TestWorkerFailureFailsUnit(t *testing.T) {
	c := New()
	srv := startCoord(t, c)
	done := submit(c, Unit{Key: "bad0", Payload: nil})
	w := &Worker{
		Base: srv.URL, Name: "w", Poll: 5 * time.Millisecond,
		Run: func(key string, payload []byte) ([]byte, error) {
			return nil, fmt.Errorf("simulated deadlock")
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go w.Loop(ctx)
	r := <-done
	if r.err == nil || !bytes.Contains([]byte(r.err.Error()), []byte("simulated deadlock")) {
		t.Fatalf("failed unit outcome: %v", r.err)
	}
	st := c.Status()
	if st.Failed != 1 || st.Done != 0 {
		t.Fatalf("status: %+v", st)
	}
}

// TestMaxExpiriesFailsUnit: a unit whose lease keeps expiring (it kills
// every worker that touches it) eventually fails instead of wedging the
// sweep forever.
func TestMaxExpiriesFailsUnit(t *testing.T) {
	c := New()
	c.LeaseTTL = time.Millisecond
	c.MaxExpiries = 3
	srv := startCoord(t, c)
	done := submit(c, Unit{Key: "killer0", Payload: nil})

	deadline := time.Now().Add(5 * time.Second)
	for claims := 0; ; {
		body, _ := json.Marshal(claimRequest{Worker: "victim"})
		resp, err := http.Post(srv.URL+"/claim", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			claims++
			time.Sleep(2 * time.Millisecond) // let the lease lapse
		}
		select {
		case r := <-done:
			if r.err == nil {
				t.Fatal("expiring unit completed successfully")
			}
			if claims < c.MaxExpiries {
				t.Fatalf("unit failed after only %d claims", claims)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("unit never failed terminally")
		}
	}
}

// TestCloseUnblocksDo: a coordinator shutdown releases blocked Do calls
// with ErrClosed and tells workers the sweep is over (410).
func TestCloseUnblocksDo(t *testing.T) {
	c := New()
	srv := startCoord(t, c)
	done := submit(c, Unit{Key: "pending0", Payload: nil})
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case r := <-done:
		if r.err != ErrClosed {
			t.Fatalf("Do after Close: %v", r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do not unblocked by Close")
	}
	body, _ := json.Marshal(claimRequest{Worker: "w"})
	resp, err := http.Post(srv.URL+"/claim", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("claim after Close: %d, want 410", resp.StatusCode)
	}
}

// TestHeartbeatExtendsLease: with heartbeats flowing, a lease outlives
// many TTLs; the coordinator never requeues a unit under active work.
func TestHeartbeatExtendsLease(t *testing.T) {
	c := New()
	c.LeaseTTL = 40 * time.Millisecond
	srv := startCoord(t, c)
	done := submit(c, Unit{Key: "slow0", Payload: nil})

	var runs int32
	w := &Worker{
		Base: srv.URL, Name: "slow", Poll: 5 * time.Millisecond,
		Run: func(key string, payload []byte) ([]byte, error) {
			atomic.AddInt32(&runs, 1)
			time.Sleep(6 * c.LeaseTTL) // several TTLs of work
			return []byte("slow-ok"), nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go w.Loop(ctx)
	r := <-done
	if r.err != nil || string(r.b) != "slow-ok" {
		t.Fatalf("slow unit outcome: %q err=%v", r.b, r.err)
	}
	if n := atomic.LoadInt32(&runs); n != 1 {
		t.Fatalf("slow unit ran %d times (lease lost despite heartbeats)", n)
	}
}
