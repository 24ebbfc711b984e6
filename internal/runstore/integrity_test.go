package runstore

// Tests for the end-to-end integrity layer: digest verification on Get,
// quarantine-and-miss on corruption, TOFU backfill for pre-integrity
// entries, the Scrub pass, and the HTTP protocol's wire-level digest
// checks, body cap and bounded retries.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// quietWarn swallows expected integrity warnings, returning a counter.
func quietWarn(v *Verified) *int {
	n := new(int)
	v.Warn = func(string, ...interface{}) { *n++ }
	return n
}

// TestVerifiedQuarantine: bytes corrupted underneath the integrity
// layer are never served — the Get misses, the corrupt bytes move to
// the quarantine kind, and the next Put heals the entry.
func TestVerifiedQuarantine(t *testing.T) {
	inner, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerified(inner)
	quietWarn(v)
	key := "cafe01"
	good := []byte(`{"cycles":42}`)
	if err := v.Put(KindResults, key, good, false); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := v.Get(KindResults, key); err != nil || !ok || !bytes.Equal(got, good) {
		t.Fatalf("clean roundtrip: %q ok=%v err=%v", got, ok, err)
	}

	// Rot the bytes behind the layer's back (bit flip on disk).
	bad := []byte(`{"cycles":43}`)
	if err := inner.Put(KindResults, key, bad, true); err != nil {
		t.Fatal(err)
	}
	got, ok, err := v.Get(KindResults, key)
	if err != nil {
		t.Fatalf("corrupt Get errored instead of missing: %v", err)
	}
	if ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	if c := v.Counters(); c.Quarantined != 1 {
		t.Fatalf("quarantined counter = %d, want 1", c.Quarantined)
	}

	// The debris is preserved for forensics, the entry and its digest
	// are gone, and a repeat Get is a clean (uncounted) miss.
	if q, ok, _ := inner.Get(QuarantineKind(KindResults), key); !ok || !bytes.Equal(q, bad) {
		t.Fatalf("quarantine copy wrong: %q ok=%v", q, ok)
	}
	if _, ok, _ := inner.Get(KindResults, key); ok {
		t.Fatal("corrupt entry not deleted")
	}
	if _, ok, _ := inner.Get(DigestKind(KindResults), key); ok {
		t.Fatal("stale digest not deleted")
	}
	if _, ok, _ := v.Get(KindResults, key); ok {
		t.Fatal("quarantined entry resurrected")
	}

	// Heal: a fresh Put is a non-replace write into a clean slot.
	if err := v.Put(KindResults, key, good, false); err != nil {
		t.Fatalf("healing Put refused: %v", err)
	}
	if got, ok, _ := v.Get(KindResults, key); !ok || !bytes.Equal(got, good) {
		t.Fatalf("store not healed: %q ok=%v", got, ok)
	}
}

// TestVerifiedBackfill: entries written before the integrity layer have
// no sidecar; the first read adopts their bytes (TOFU) and writes one,
// so every later read verifies.
func TestVerifiedBackfill(t *testing.T) {
	inner, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "beef02"
	legacy := []byte("pre-integrity bytes")
	if err := inner.Put(KindResults, key, legacy, false); err != nil {
		t.Fatal(err)
	}
	v := NewVerified(inner)
	quietWarn(v)
	if got, ok, err := v.Get(KindResults, key); err != nil || !ok || !bytes.Equal(got, legacy) {
		t.Fatalf("legacy entry not served: %q ok=%v err=%v", got, ok, err)
	}
	if c := v.Counters(); c.Backfilled != 1 {
		t.Fatalf("backfilled = %d, want 1", c.Backfilled)
	}
	if d, ok, _ := inner.Get(DigestKind(KindResults), key); !ok || string(d) != Digest(legacy) {
		t.Fatalf("sidecar not backfilled: %q ok=%v", d, ok)
	}
	if _, ok, _ := v.Get(KindResults, key); !ok {
		t.Fatal("entry lost after backfill")
	}
	if c := v.Counters(); c.Verified != 1 || c.Backfilled != 1 {
		t.Fatalf("second read not verified: %+v", c)
	}
}

// TestVerifiedScrub: one pass classifies every entry — verified,
// backfilled, or quarantined — with per-kind stats.
func TestVerifiedScrub(t *testing.T) {
	inner, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerified(inner)
	quietWarn(v)
	// ok1, ok2: written through the layer (digests present).
	for _, k := range []string{"ok1", "ok2"} {
		if err := v.Put(KindResults, k, []byte("good-"+k), false); err != nil {
			t.Fatal(err)
		}
	}
	// legacy3: no sidecar.
	if err := inner.Put(KindResults, "legacy3", []byte("old"), false); err != nil {
		t.Fatal(err)
	}
	// rot4: sidecar disagrees with the bytes.
	if err := v.Put(KindResults, "rot4", []byte("original"), false); err != nil {
		t.Fatal(err)
	}
	if err := inner.Put(KindResults, "rot4", []byte("flipped!"), true); err != nil {
		t.Fatal(err)
	}
	// A second kind too, proving kinds are scrubbed independently.
	if err := v.Put("blobs", "cp5", []byte("blob"), false); err != nil {
		t.Fatal(err)
	}

	st, err := v.Scrub(KindResults, "blobs")
	if err != nil {
		t.Fatal(err)
	}
	rs := st.Kinds[KindResults]
	if rs.Scanned != 4 || rs.OK != 2 || rs.Backfilled != 1 || rs.Quarantined != 1 || rs.Errors != 0 {
		t.Fatalf("results scrub stats: %+v", rs)
	}
	if rs.Bytes <= 0 {
		t.Fatalf("results scrub bytes: %d", rs.Bytes)
	}
	cs := st.Kinds["blobs"]
	if cs.Scanned != 1 || cs.OK != 1 {
		t.Fatalf("blobs scrub stats: %+v", cs)
	}
	if c := v.Counters(); c.ScrubScanned != 5 || c.ScrubQuarantined != 1 {
		t.Fatalf("scrub counters: %+v", c)
	}
	// The rot is gone; the rest survived.
	if _, ok, _ := v.Get(KindResults, "rot4"); ok {
		t.Fatal("scrub left the corrupt entry readable")
	}
	for _, k := range []string{"ok1", "ok2", "legacy3"} {
		if _, ok, _ := v.Get(KindResults, k); !ok {
			t.Fatalf("scrub damaged healthy entry %s", k)
		}
	}
}

// TestFindVerified: the metrics layer locates the integrity wrapper
// through an arbitrary composition, and reports nil when absent.
func TestFindVerified(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerified(d)
	m := NewMetrics(nil)
	if FindVerified(m.Instrument(v, "verified")) != v {
		// nil Metrics is identity, so this exercises the direct case…
		t.Fatal("direct Verified not found")
	}
	if got := FindVerified(NewLRU(d, 1<<10)); got != nil {
		t.Fatalf("found a Verified where none exists: %v", got)
	}
}

// TestHTTPPutBodyCap: a PUT beyond the server's byte cap is refused
// with 413 before the backend sees it; one at the cap goes through.
func TestHTTPPutBodyCap(t *testing.T) {
	inner, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(inner))
	defer srv.Close()
	c := NewClient(srv.URL)

	if err := c.Put(KindResults, "fits01", make([]byte, maxBlobBytes), false); err != nil {
		t.Fatalf("at-cap Put refused: %v", err)
	}
	err = c.Put(KindResults, "huge02", make([]byte, maxBlobBytes+1), false)
	if err == nil || !strings.Contains(err.Error(), "413") {
		t.Fatalf("over-cap Put not refused with 413: %v", err)
	}
	if _, ok, _ := inner.Get(KindResults, "huge02"); ok {
		t.Fatal("over-cap body reached the backend")
	}
}

// TestHTTPWireDigest: corruption between server and client is detected
// on both directions — a GET whose body does not match the server's
// digest header is retried and then refused (never silently served),
// and a PUT whose body was mangled in flight is refused by the server.
func TestHTTPWireDigest(t *testing.T) {
	inner, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	real := NewServer(inner)
	var corruptGets atomic.Int64
	// A "bad proxy": forwards to the real server but flips a byte in
	// every GET response body, leaving the digest header intact.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.Count(r.URL.Path, "/") == 2 {
			rec := httptest.NewRecorder()
			real.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 0 {
				corruptGets.Add(1)
				body = append([]byte{}, body...)
				body[0] ^= 0xff
			}
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer proxy.Close()

	if err := inner.Put(KindResults, "wire03", []byte("precious bytes"), false); err != nil {
		t.Fatal(err)
	}
	c := NewClient(proxy.URL)
	_, ok, err := c.Get(KindResults, "wire03")
	if ok {
		t.Fatal("corrupted body served as a hit")
	}
	if err == nil || !strings.Contains(err.Error(), "corruption") {
		t.Fatalf("corruption not surfaced: %v", err)
	}
	if n := corruptGets.Load(); n != clientAttempts {
		t.Fatalf("client attempted %d times, want %d", n, clientAttempts)
	}

	// PUT direction: a digest header that does not match the body is the
	// server's cue the body was corrupted in flight — 400, nothing stored.
	req, err := http.NewRequest(http.MethodPut, proxy.URL+"/results/wire04", bytes.NewReader([]byte("sent bytes")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(digestHeader, Digest([]byte("different bytes")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched PUT digest = %d, want 400", resp.StatusCode)
	}
	if _, ok, _ := inner.Get(KindResults, "wire04"); ok {
		t.Fatal("corrupt PUT body reached the backend")
	}
}

// TestHTTPClientRetriesTransient: 5xx and dropped responses are
// replayed up to the attempt bound; a healthy server on a later attempt
// answers, and a persistent failure surfaces after the bound.
func TestHTTPClientRetriesTransient(t *testing.T) {
	inner, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Put(KindResults, "flaky05", []byte("eventually"), false); err != nil {
		t.Fatal(err)
	}
	real := NewServer(inner)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "chaos", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	got, ok, err := c.Get(KindResults, "flaky05")
	if err != nil || !ok || string(got) != "eventually" {
		t.Fatalf("Get through flaky server: %q ok=%v err=%v", got, ok, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls, want 3", n)
	}

	// Persistent 5xx: bounded, then surfaced.
	calls.Store(-1 << 30)
	if _, _, err := c.Get(KindResults, "flaky05"); err == nil {
		t.Fatal("persistent 5xx not surfaced")
	}
	if n := calls.Load(); n != -1<<30+clientAttempts {
		t.Fatalf("persistent failure attempted %d times, want %d", n-(-1<<30), clientAttempts)
	}

	// A 4xx (here: invalid replace conflict) is NOT retried.
	calls.Store(1 << 30) // healthy passthrough
	if err := c.Put(KindResults, "flaky05", []byte("different"), false); err == nil {
		t.Fatal("conflict not surfaced")
	}
	if n := calls.Load(); n != 1<<30+1 {
		t.Fatalf("conflict retried: %d extra calls", n-1<<30)
	}
}

// TestVerifiedOverHTTPQuarantine: the worker's full stack — Verified
// over the HTTP client — quarantines server-side corruption through the
// wire (the quarantine copy lands back on the server).
func TestVerifiedOverHTTPQuarantine(t *testing.T) {
	inner, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(inner))
	defer srv.Close()
	v := NewVerified(NewClient(srv.URL))
	quietWarn(v)

	key := "dead06"
	if err := v.Put(KindResults, key, []byte("truth"), false); err != nil {
		t.Fatal(err)
	}
	// Corrupt on the server's disk; the server's GET digest header now
	// matches the corrupt bytes (it hashes what it serves), so only the
	// sidecar comparison can catch it.
	if err := inner.Put(KindResults, key, []byte("lies!"), true); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := v.Get(KindResults, key); ok || err != nil {
		t.Fatalf("server-side corruption served: ok=%v err=%v", ok, err)
	}
	if q, ok, _ := inner.Get(QuarantineKind(KindResults), key); !ok || string(q) != "lies!" {
		t.Fatalf("quarantine copy not on the server: %q ok=%v", q, ok)
	}
	if _, ok, _ := inner.Get(KindResults, key); ok {
		t.Fatal("corrupt entry still on the server")
	}
}
