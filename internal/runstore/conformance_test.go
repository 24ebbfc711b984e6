package runstore

// The backend conformance suite: every Backend implementation — Dir,
// LRU over anything, and the HTTP Client against NewServer — must obey
// the exact same write-discipline contract (see the package doc), so
// the suite is written once against the interface and run against each
// composition a real deployment uses.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// backends enumerates the compositions under test. Each constructor gets
// a fresh, empty store.
func backends(t *testing.T) map[string]func(t *testing.T) Backend {
	t.Helper()
	newDir := func(t *testing.T) Backend {
		d, err := NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	newHTTP := func(t *testing.T) Backend {
		srv := httptest.NewServer(NewServer(newDir(t)))
		t.Cleanup(srv.Close)
		return NewClient(srv.URL)
	}
	return map[string]func(t *testing.T) Backend{
		"dir":      newDir,
		"lru-dir":  func(t *testing.T) Backend { return NewLRU(newDir(t), 1<<20) },
		"http":     newHTTP,
		"lru-http": func(t *testing.T) Backend { return NewLRU(newHTTP(t), 1<<20) },
		// The integrity layer must be invisible when nothing is corrupt:
		// the exact same contract through digest writes and verification,
		// both locally and across the wire (the worker's real stack).
		"verified-dir":      func(t *testing.T) Backend { return NewVerified(newDir(t)) },
		"verified-lru-http": func(t *testing.T) Backend { return NewVerified(NewLRU(newHTTP(t), 1<<20)) },
	}
}

func TestBackendConformance(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			conformance(t, mk(t))
		})
	}
}

// conformance exercises the full Backend contract on one fresh backend.
func conformance(t *testing.T, b Backend) {
	const key = "deadbeef01"

	// Empty store: miss, empty listing, no-op delete.
	if _, ok, err := b.Get(KindResults, key); ok || err != nil {
		t.Fatalf("empty store Get: ok=%v err=%v", ok, err)
	}
	if _, ok, err := b.Stat(KindResults, key); ok || err != nil {
		t.Fatalf("empty store Stat: ok=%v err=%v", ok, err)
	}
	if infos, err := b.Keys(KindResults); len(infos) != 0 || err != nil {
		t.Fatalf("empty store Keys: %v err=%v", infos, err)
	}
	if err := b.Delete(KindResults, key); err != nil {
		t.Fatalf("delete of missing entry errored: %v", err)
	}

	// Roundtrip, two kinds independent.
	const otherKind = "blobs"
	data := []byte(`{"x":1}` + "\n")
	blob := []byte("opaque bytes")
	if err := b.Put(KindResults, key, data, false); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(otherKind, key, blob, false); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := b.Get(KindResults, key); err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("results roundtrip: %q ok=%v err=%v", got, ok, err)
	}
	if got, ok, err := b.Get(otherKind, key); err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("%s roundtrip: %q ok=%v err=%v", otherKind, got, ok, err)
	}

	// Idempotent identical Put.
	if err := b.Put(KindResults, key, data, false); err != nil {
		t.Fatalf("identical Put not idempotent: %v", err)
	}

	// Differing Put without replace: ErrDiffers, original intact.
	other := []byte(`{"x":2}` + "\n")
	if err := b.Put(KindResults, key, other, false); !errors.Is(err, ErrDiffers) {
		t.Fatalf("differing Put not refused with ErrDiffers: %v", err)
	}
	if got, ok, _ := b.Get(KindResults, key); !ok || !bytes.Equal(got, data) {
		t.Fatalf("original damaged by refused Put: %q ok=%v", got, ok)
	}

	// Replace overwrites.
	if err := b.Put(KindResults, key, other, true); err != nil {
		t.Fatalf("replace Put failed: %v", err)
	}
	if got, ok, _ := b.Get(KindResults, key); !ok || !bytes.Equal(got, other) {
		t.Fatalf("replace did not take: %q ok=%v", got, ok)
	}

	// Stat sees the stored size and a sane mtime.
	info, ok, err := b.Stat(KindResults, key)
	if err != nil || !ok {
		t.Fatalf("Stat after Put: ok=%v err=%v", ok, err)
	}
	if info.Size != int64(len(other)) {
		t.Fatalf("Stat size = %d, want %d", info.Size, len(other))
	}
	if info.ModTime.IsZero() || time.Since(info.ModTime) > time.Hour {
		t.Fatalf("Stat mtime implausible: %v", info.ModTime)
	}

	// Keys lists per kind, sorted.
	if err := b.Put(KindResults, "aa11", data, false); err != nil {
		t.Fatal(err)
	}
	infos, err := b.Keys(KindResults)
	if err != nil || len(infos) != 2 {
		t.Fatalf("Keys: %v err=%v", infos, err)
	}
	if infos[0].Key != "aa11" || infos[1].Key != key {
		t.Fatalf("Keys not sorted: %v", infos)
	}
	if cks, _ := b.Keys(otherKind); len(cks) != 1 {
		t.Fatalf("kinds not independent in Keys: %v", cks)
	}

	// Delete removes exactly one entry; repeat is a no-op.
	if err := b.Delete(KindResults, "aa11"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.Get(KindResults, "aa11"); ok {
		t.Fatal("deleted entry still readable")
	}
	if err := b.Delete(KindResults, "aa11"); err != nil {
		t.Fatalf("repeat Delete errored: %v", err)
	}
	if _, ok, _ := b.Get(otherKind, key); !ok {
		t.Fatal("Delete leaked across kinds")
	}

	// Invalid names are rejected, not resolved: nothing like a path
	// traversal may reach the underlying storage.
	for _, bad := range []string{"", "a/b", "..", "a b", "k\x00y", "café"} {
		if err := b.Put(KindResults, bad, data, false); err == nil {
			t.Fatalf("Put accepted invalid key %q", bad)
		}
		if _, _, err := b.Get("bad/kind", "aa"); err == nil {
			t.Fatal("Get accepted invalid kind")
		}
	}

	// Concurrent same-key writers settle on one winner: afterwards the
	// entry holds exactly one writer's bytes, whole.
	const writers = 8
	candidates := make([][]byte, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		candidates[i] = []byte(fmt.Sprintf(`{"writer":%d,"pad":"0123456789abcdef"}`, i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Both outcomes are legal per the contract: win, or lose to a
			// differing winner with ErrDiffers.
			if err := b.Put(KindResults, "race00", candidates[i], false); err != nil && !errors.Is(err, ErrDiffers) {
				t.Errorf("writer %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	got, ok, err := b.Get(KindResults, "race00")
	if err != nil || !ok {
		t.Fatalf("no winner after concurrent writers: ok=%v err=%v", ok, err)
	}
	winner := -1
	for i, c := range candidates {
		if bytes.Equal(got, c) {
			winner = i
			break
		}
	}
	if winner < 0 {
		t.Fatalf("entry after concurrent writers is not any writer's bytes: %q", got)
	}
}

// TestDirAtomicVisibility hammers one key with replace-writes while
// readers poll: every read must be a miss or one writer's complete
// bytes, never a torn prefix.
func TestDirAtomicVisibility(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%04d", i)), 1024)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.Put(KindResults, "hot0", payload(i%7), true); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		b, ok, err := d.Get(KindResults, "hot0")
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
		if ok && (len(b) != 4096 || !bytes.Equal(b[:4], b[4092:])) {
			t.Fatalf("torn read: %d bytes, head %q tail %q", len(b), b[:4], b[len(b)-4:])
		}
	}
	close(stop)
	wg.Wait()
}

// TestLRUTier pins the cache-specific behavior the conformance pass
// cannot see: hit/miss counters, eviction order, and the size bound.
func TestLRUTier(t *testing.T) {
	inner, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := NewLRU(inner, 64)
	four := func(s string) []byte { return bytes.Repeat([]byte(s), 8) } // 8 bytes each

	// Write-through populates the cache: first Get is a hit.
	if err := l.Put(KindResults, "k1", four("a"), false); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := l.Get(KindResults, "k1"); !ok {
		t.Fatal("k1 missing")
	}
	if h, m := l.Stats(); h != 1 || m != 0 {
		t.Fatalf("after cached Get: hits=%d misses=%d", h, m)
	}

	// A value in the inner store but not the cache is a miss that then
	// caches (read-through).
	if err := inner.Put(KindResults, "k2", four("b"), false); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := l.Get(KindResults, "k2"); !ok {
		t.Fatal("k2 missing through tier")
	}
	if h, m := l.Stats(); h != 1 || m != 1 {
		t.Fatalf("after read-through: hits=%d misses=%d", h, m)
	}
	if _, ok, _ := l.Get(KindResults, "k2"); !ok {
		t.Fatal("k2 missing")
	}
	if h, _ := l.Stats(); h != 2 {
		t.Fatal("read-through did not cache")
	}

	// Fill past the 64-byte budget: k1 (cold end after the k2/k3 touches)
	// is evicted, k3 stays.
	for i := 0; i < 7; i++ {
		if err := l.Put(KindResults, fmt.Sprintf("f%d", i), four("c"), false); err != nil {
			t.Fatal(err)
		}
	}
	if s := l.Size(); s > 64 {
		t.Fatalf("cache over budget: %d bytes", s)
	}
	_, m0 := l.Stats()
	if _, ok, _ := l.Get(KindResults, "k1"); !ok {
		t.Fatal("k1 lost from inner store")
	}
	if _, m := l.Stats(); m != m0+1 {
		t.Fatal("evicted k1 still served from cache")
	}

	// A value larger than the whole budget passes through uncached.
	big := bytes.Repeat([]byte("x"), 128)
	if err := l.Put(KindResults, "big0", big, false); err != nil {
		t.Fatal(err)
	}
	if s := l.Size(); s > 64 {
		t.Fatalf("oversized value cached: %d bytes", s)
	}

	// Cross-writer visibility: a replace landing directly on the inner
	// store must not be shadowed forever — Delete drops the local copy.
	if err := inner.Put(KindResults, "k2", four("z"), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(KindResults, "k2"); err != nil {
		t.Fatal(err)
	}
	if b, ok, _ := l.Get(KindResults, "k2"); ok {
		t.Fatalf("k2 not deleted through tier: %q", b)
	}
}

// TestHTTPServerRejectsTraversal: the server must 404 malformed paths
// rather than forwarding them to the backend.
func TestHTTPServerRejectsTraversal(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(d))
	defer srv.Close()
	for _, path := range []string{"/", "/results/../etc", "/a/b/c", "/results/ca%2ffe", "/results/a.b"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 {
			t.Errorf("GET %s = %d, want 4xx", path, resp.StatusCode)
		}
	}
	// "/results" (with or without trailing slash) is the listing endpoint.
	for _, path := range []string{"/results", "/results/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestHTTPClientReusesConnectionOnMiss: a miss (404) or a refused
// listing must not cost a new TCP connection. The client drains those
// bodies so their keep-alive connection returns to the pool; N misses
// against one server therefore dial exactly once.
func TestHTTPClientReusesConnectionOnMiss(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inner := NewServer(d)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/denied" {
			http.Error(w, "listing denied", http.StatusForbidden)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	var dials atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := NewClient(srv.URL)

	const n = 20
	for i := 0; i < n; i++ {
		if _, ok, err := c.Get(KindResults, fmt.Sprintf("missing%02d", i)); ok || err != nil {
			t.Fatalf("miss %d: ok=%v err=%v", i, ok, err)
		}
		if _, err := c.Keys("denied"); err == nil {
			t.Fatalf("refused listing %d returned no error", i)
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d misses and %d refused listings opened %d connections, want 1", n, n, got)
	}
}
