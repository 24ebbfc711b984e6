package tinydir

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDistributedSweepByteIdentical is the acceptance bar end to end: a
// figure built by a coordinator dispatching to a fleet — one worker
// joining late, plus a blackhole claimer that grabs a unit and dies
// mid-lease — must emit byte-identical CSV to a plain local build, with
// every unit completed exactly once.
func TestDistributedSweepByteIdentical(t *testing.T) {
	// The local oracle.
	local := NewSuite(ScaleTest)
	local.Workers = 4
	var want bytes.Buffer
	if err := buildFigure(local, "1").WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	// The coordinator: suite + durable store + service on an httptest mux.
	coord := NewSuite(ScaleTest)
	coord.Workers = 4
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc, err := AttachSweepServiceCfg(coord, store, mux, SweepServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Coord.LeaseTTL = 200 * time.Millisecond // let the blackhole's lease lapse fast
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer svc.Close()

	// Build the figure on a goroutine; it blocks until the fleet drains
	// the units.
	figCh := make(chan Figure, 1)
	go func() {
		f := buildFigure(coord, "1")
		figCh <- f
	}()

	// The blackhole claimer: poll until it wins one unit, then vanish
	// without heartbeating — the lease must expire and the unit requeue.
	blackholed := make(chan string, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			body, _ := json.Marshal(map[string]string{"Worker": "blackhole"})
			resp, err := http.Post(srv.URL+"/sweepd/claim", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			if resp.StatusCode == http.StatusOK {
				var cl struct{ Key string }
				json.NewDecoder(resp.Body).Decode(&cl)
				resp.Body.Close()
				blackholed <- cl.Key
				return
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusGone {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The fleet: one worker immediately, one joining late.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerErr := make(chan error, 2)
	startWorker := func(name string, delay time.Duration) {
		go func() {
			time.Sleep(delay)
			workerErr <- RunSweepWorker(ctx, WorkerConfig{
				Coordinator: srv.URL,
				Name:        name,
				CacheBytes:  1 << 20,
			})
		}()
	}
	startWorker("w-early", 0)
	startWorker("w-late", 150*time.Millisecond)

	var fig Figure
	select {
	case fig = <-figCh:
	case <-ctx.Done():
		t.Fatal("distributed figure never completed")
	}
	var got bytes.Buffer
	if err := fig.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("distributed CSV diverged from local build:\n--- local ---\n%s\n--- distributed ---\n%s", want.String(), got.String())
	}
	if n := len(coord.Failures()); n != 0 {
		t.Fatalf("distributed sweep recorded %d failures: %+v", n, coord.Failures())
	}

	// Exactly-once: every unit done, nothing pending/leased/failed — the
	// blackholed unit included (requeued and completed elsewhere).
	st := svc.Coord.Status()
	if st.Done != st.Total || st.Pending != 0 || st.Leased != 0 || st.Failed != 0 {
		t.Fatalf("coordinator not drained: %+v", st)
	}
	select {
	case key := <-blackholed:
		found := false
		for _, w := range st.Workers {
			if w.Name == "blackhole" {
				found = true
				if w.Completed != 0 {
					t.Errorf("blackhole credited with completions: %+v", w)
				}
			}
		}
		if !found {
			t.Error("blackhole claimer never seen by the coordinator")
		}
		_ = key
	default:
		t.Log("blackhole claimer raced out of units (fleet drained first); requeue covered by sweepd tests")
	}

	// Shutting the sweep down sends workers home (nil error: sweep over)
	// and removes the temporary journal the empty config asked for.
	svc.Close()
	if _, err := os.Stat(svc.tempDir); svc.tempDir == "" || !os.IsNotExist(err) {
		t.Errorf("temporary journal %q not removed on Close (stat err %v)", svc.tempDir, err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-workerErr:
			if err != nil {
				t.Errorf("worker exit: %v", err)
			}
		case <-ctx.Done():
			t.Fatal("workers never exited after Close")
		}
	}

	// And a resumed coordinator serves the whole figure from the store
	// without any fleet at all.
	resumed := NewSuite(ScaleTest)
	resumed.Workers = 2
	resumed.Store = store
	resumed.Resume = true
	var again bytes.Buffer
	if err := buildFigure(resumed, "1").WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want.Bytes()) {
		t.Fatal("resume from the distributed sweep's store diverged")
	}
	if resumed.Runs() != 0 {
		t.Fatalf("resume re-simulated %d runs", resumed.Runs())
	}
}

// TestWireOptionsRoundTrip: the unit payload encoding is exact for every
// field that enters the store key, and trace-driven runs refuse dispatch.
func TestWireOptionsRoundTrip(t *testing.T) {
	o := Options{
		App:       App("barnes"),
		Scheme:    TinyDirectory(1.0/64, true, true),
		Scale:     ScaleTest,
		MaxEvents: 123456,
		FaultRate: 0.02,
		FaultSeed: 7,
		Timeout:   3 * time.Second,
	}
	payload, err := encodeUnit(o)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeUnit(payload)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := testStore(t)
	if store.Key(back) != store.Key(o) {
		t.Fatal("unit payload round trip changed the store key")
	}

	if _, err := encodeUnit(Options{Trace: &TraceInput{}, Scheme: TinyDirectory(1.0/64, true, true)}); err == nil {
		t.Fatal("trace-driven run accepted for dispatch")
	}
}

// TestDashboard: the status feed carries the reporter snapshot and obs
// listing; the obs file route refuses anything but listed epoch CSVs.
func TestDashboard(t *testing.T) {
	obsDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(obsDir, "run1.epochs.csv"), []byte("cycle,ipc\n1,0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(obsDir, "secret.txt"), []byte("not yours"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep := NewReporter(nil)
	rep.addPlanned(3)
	rep.runStarted("barnes", "tiny", nil)
	rep.runDone("barnes", "tiny", true, time.Millisecond)

	mux := http.NewServeMux()
	d := &Dashboard{Reporter: rep, ObsDir: obsDir}
	d.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/dash/status")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Sweep SweepStatus
		Obs   []string
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Sweep.Planned != 3 || st.Sweep.Done != 1 {
		t.Fatalf("status sweep: %+v", st.Sweep)
	}
	if len(st.Obs) != 1 || st.Obs[0] != "run1.epochs.csv" {
		t.Fatalf("status obs listing: %v", st.Obs)
	}

	if resp, err = http.Get(srv.URL + "/dash/obs/run1.epochs.csv"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("epoch CSV fetch: %d", resp.StatusCode)
	}
	for _, path := range []string{"/dash/obs/secret.txt", "/dash/obs/../store_test.go", "/dash/obs/nope.epochs.csv"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Errorf("GET %s served a file outside the obs listing", path)
		}
	}

	// The page itself renders.
	if resp, err = http.Get(srv.URL + "/"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("dashboard page: %d", resp.StatusCode)
	}
}
