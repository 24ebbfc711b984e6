package tinydir

// Soak and harness-hardening tests: the seeded fault soak of DESIGN.md
// §10, and the sweep quarantine path (a panicking or deadline-blown run
// must not take the worker pool down with it).

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSoak runs the acceptance soak: 32 fault seeds per scheme (sparse,
// tiny, stash) at a moderate uniform rate. Every run must drain with zero
// golden-machine violations, a coherent end state, and exactly the
// fault-free retire count.
func TestSoak(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	var log bytes.Buffer
	rep := Soak(SoakOptions{Seeds: seeds, FaultRate: 0.02}, &log)
	if rep.Failures != 0 {
		for _, r := range rep.Runs {
			if r.Err != "" {
				t.Errorf("%s seed %d: %s", r.Scheme, r.Seed, r.Err)
			}
		}
		t.Fatalf("%d of %d soak runs failed\n%s", rep.Failures, len(rep.Runs), log.String())
	}
	if want := 3 * seeds; len(rep.Runs) != want {
		t.Fatalf("soak ran %d runs, want %d", len(rep.Runs), want)
	}
	// The sweep as a whole must have exercised every fault class.
	st := rep.Stats
	if st.MeshDrops == 0 || st.MeshDups == 0 || st.MeshDelays == 0 || st.ECCDetected == 0 || st.DRAMAborts == 0 {
		t.Fatalf("fault classes not all exercised across the soak: %+v", st)
	}
	if st.ReqTimeouts == 0 {
		t.Fatalf("no request timeouts across the whole soak: %+v", st)
	}
}

// TestSweepQuarantinesPanickingRun plants a poisoned run (an event budget
// of 1 makes Complete panic on unfinished cores) in the middle of a
// 4-worker sweep and checks the quarantine contract: the other runs
// complete normally, the failure is recorded with an artifact under
// ObsDir/quarantine, and ReportFailures returns nonzero.
func TestSweepQuarantinesPanickingRun(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(ScaleTest)
	s.Workers = 4
	s.ObsDir = dir
	apps := []string{"barnes", "ocean_cp", "bodytrack", "swaptions"}
	var plan []plannedRun
	for i, a := range apps {
		o := Options{App: App(a), Scheme: SparseDirectory(2.0), Scale: ScaleTest}
		if i == 1 {
			o.MaxEvents = 1 // poison: guarantees a deadlock panic in Complete
		}
		plan = append(plan, plannedRun{key: a, opts: o})
	}
	s.prefetch(plan)

	fails := s.Failures()
	if len(fails) != 1 {
		t.Fatalf("got %d failures, want exactly 1: %+v", len(fails), fails)
	}
	f := fails[0]
	if f.App != "ocean_cp" {
		t.Fatalf("wrong run quarantined: %+v", f)
	}
	if !strings.Contains(f.Err, "unfinished cores") {
		t.Fatalf("failure does not carry the panic message: %q", f.Err)
	}
	if f.Artifact == "" {
		t.Fatal("no quarantine artifact written despite ObsDir being set")
	}
	b, err := os.ReadFile(f.Artifact)
	if err != nil {
		t.Fatalf("quarantine artifact unreadable: %v", err)
	}
	for _, want := range []string{"quarantined run: ocean_cp", "unfinished cores", "stack:"} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("quarantine artifact missing %q:\n%s", want, b)
		}
	}
	// The healthy runs completed and landed in the cache.
	if got := s.Runs(); got != 3 {
		t.Fatalf("sweep executed %d healthy runs, want 3", got)
	}
	for i, a := range apps {
		r, ok := s.sh.cache[a]
		if !ok {
			t.Fatalf("no cache entry for %s", a)
		}
		if i == 1 {
			if r.Metrics.Cycles != 0 {
				t.Fatalf("poisoned run produced a non-zero result: %+v", r)
			}
			continue
		}
		if r.Metrics.Cycles == 0 {
			t.Fatalf("healthy run %s produced a zero result", a)
		}
	}
	if n := s.ReportFailures(); n != 1 {
		t.Fatalf("ReportFailures = %d, want 1", n)
	}
}

// TestSweepRunDeadline wedges a run behind an unmeetable wall-clock
// deadline and checks it is quarantined as a RunTimeoutError whose
// artifact carries the stalled-machine dump.
func TestSweepRunDeadline(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(ScaleTest)
	s.Workers = 1
	s.ObsDir = dir
	s.RunTimeout = time.Nanosecond // any real simulation blows this
	s.prefetch([]plannedRun{{key: "k", opts: Options{App: App("barnes"), Scheme: SparseDirectory(2.0), Scale: ScaleTest}}})
	fails := s.Failures()
	if len(fails) != 1 {
		t.Fatalf("got %d failures, want 1: %+v", len(fails), fails)
	}
	if !strings.Contains(fails[0].Err, "wall-clock deadline") {
		t.Fatalf("failure is not a deadline error: %q", fails[0].Err)
	}
	b, err := os.ReadFile(fails[0].Artifact)
	if err != nil {
		t.Fatalf("quarantine artifact unreadable: %v", err)
	}
	if !strings.Contains(string(b), "stalled machine state:") {
		t.Fatalf("deadline artifact missing the stall dump:\n%s", b)
	}
	if !strings.Contains(string(b), "core ") {
		t.Fatalf("stall dump carries no core state:\n%s", b)
	}
	// The artifact landed where the docs promise.
	if got := filepath.Dir(fails[0].Artifact); got != filepath.Join(dir, "quarantine") {
		t.Fatalf("artifact in %s, want %s", got, filepath.Join(dir, "quarantine"))
	}

	// The same run dispatched to a fleet worker takes the same guarded
	// path there: the coordinator ships its RunTimeout with the unit, and
	// the failure it records carries the local quarantine's message.
	coord := NewSuite(ScaleTest)
	coord.ObsDir = t.TempDir()
	coord.RunTimeout = time.Nanosecond
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	svc, err := AttachSweepServiceCfg(coord, store, mux, SweepServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	workerErr := make(chan error, 1)
	go func() { workerErr <- RunSweepWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: "w"}) }()
	coord.prefetch([]plannedRun{{key: "k", opts: Options{App: App("barnes"), Scheme: SparseDirectory(2.0), Scale: ScaleTest}}})
	svc.Close()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exit: %v", err)
	}
	remote := coord.Failures()
	if len(remote) != 1 {
		t.Fatalf("dispatched sweep got %d failures, want 1: %+v", len(remote), remote)
	}
	elapsed := regexp.MustCompile(`exceeded its \S+ wall-clock`)
	localMsg := elapsed.ReplaceAllString(fails[0].Err, "exceeded its D wall-clock")
	remoteMsg := elapsed.ReplaceAllString(remote[0].Err, "exceeded its D wall-clock")
	if !strings.HasSuffix(remoteMsg, localMsg) {
		t.Fatalf("dispatched deadline failure %q does not carry the local message %q", remote[0].Err, fails[0].Err)
	}
	if remote[0].Artifact == "" {
		t.Fatal("dispatched failure wrote no quarantine artifact despite ObsDir being set")
	}
}
