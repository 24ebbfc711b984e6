package tinydir

// HTTP-surface tests for the dashboard (TestDashboard in
// distributed_test.go covers the happy path): the status JSON shape,
// traversal hardening on the obs file route (including encoded
// separators, which only a raw request can exercise — net/http cleans
// paths before ServeMux routing), and the root handler 404ing
// everything but /.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tinydir/internal/telemetry"
)

// TestDashboardStatusShape pins the /dash/status JSON: exactly the
// keys Series and Obs, with Series the registry's own snapshot for a
// registry carrying a counter, a gauge and a histogram.
func TestDashboardStatusShape(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("runstore_op_errors_total", "errors", "backend", "dir", "op", "get").Inc()
	reg.GaugeFunc("sweepd_queue_depth", "pending", func() float64 { return 2 })
	h := reg.Hist("runstore_op_duration_us", "latency", "backend", "dir", "op", "get")
	for _, v := range []uint64{3, 40, 500} {
		h.Observe(v)
	}
	mux := http.NewServeMux()
	(&Dashboard{Registry: reg}).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/dash/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["Obs"]; !ok || len(m) != 2 {
		t.Fatalf("status keys %v, want exactly Series and Obs", m)
	}
	var series []telemetry.SeriesSnapshot
	if err := json.Unmarshal(m["Series"], &series); err != nil {
		t.Fatal(err)
	}
	if want := reg.Snapshot(); len(want) != 3 || !reflect.DeepEqual(series, want) {
		t.Fatalf("Series is not the registry snapshot:\n got %+v\nwant %+v", series, want)
	}
}

// TestDashboardObsTraversalRaw sends uncleaned request targets straight
// over the socket — the only way to exercise encoded dots and slashes,
// since http.Get and ServeMux canonicalize first — and plants a bait
// .epochs.csv one directory above ObsDir that must stay unreachable.
func TestDashboardObsTraversalRaw(t *testing.T) {
	parent := t.TempDir()
	obsDir := filepath.Join(parent, "obs")
	if err := os.Mkdir(obsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parent, "bait.epochs.csv"), []byte("stolen"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(obsDir, "ok.epochs.csv"), []byte("fine"), 0o644); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	(&Dashboard{ObsDir: obsDir}).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rawGet := func(target string) (status int, body string) {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", target)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("raw GET %s: %v", target, err)
		}
		defer resp.Body.Close()
		var buf [64]byte
		n, _ := resp.Body.Read(buf[:])
		return resp.StatusCode, string(buf[:n])
	}

	if status, body := rawGet("/dash/obs/ok.epochs.csv"); status != 200 || body != "fine" {
		t.Fatalf("listed CSV over raw socket: %d %q", status, body)
	}
	for _, target := range []string{
		"/dash/obs/../bait.epochs.csv",              // plain dot-dot, uncleaned
		"/dash/obs/%2e%2e/bait.epochs.csv",          // encoded dots
		"/dash/obs/..%2fbait.epochs.csv",            // encoded slash
		"/dash/obs/x%2f..%2f..%2fbait.epochs.csv",   // nested encoded traversal
		"/dash/obs//" + parent + "/bait.epochs.csv", // absolute-ish path
	} {
		status, body := rawGet(target)
		if status == 200 && body == "stolen" {
			t.Errorf("raw GET %s served the bait file outside ObsDir", target)
		}
	}
}

// TestDashboardRootOnlyServesRoot: the catch-all pattern must 404
// every path it does not explicitly own, not serve the page everywhere.
func TestDashboardRootOnlyServesRoot(t *testing.T) {
	mux := http.NewServeMux()
	(&Dashboard{}).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("root page: %d", resp.StatusCode)
	}
	for _, path := range []string{"/nope", "/dash", "/dash/", "/index.html"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}
