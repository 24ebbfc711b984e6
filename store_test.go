package tinydir

import (
	"bytes"
	"encoding/json"
	"log"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tinydir/internal/runstore"
)

func testStore(t *testing.T) (*RunStore, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewRunStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// resultFile reproduces the Dir backend's on-disk layout, which the
// tests tamper with directly to simulate crashes.
func resultFile(dir, key string) string { return filepath.Join(dir, "results", key) }

var storeTestOpts = Options{
	App:    App("barnes"),
	Scheme: TinyDirectory(1.0/64, true, true),
	Scale:  Scale{Name: "store", Cores: 16, Refs: 300},
}

// TestRunStoreStacks: a store-backed run equals Run on both backend
// stacks the system uses — the local Verified(Dir) and a fleet worker's
// Verified(LRU(Client)) against a Dir served over HTTP — and leaves
// nothing behind but the sealed result. A resumed run
// is served without simulating, and the collision guard holds on both
// stacks (across the wire, the server's 409 surfaces as the same loud
// refusal). An instrumented run through a store returns the same Result
// as Run.
func TestRunStoreStacks(t *testing.T) {
	plain := Run(storeTestOpts)
	cases := []struct {
		name  string
		stack func(t *testing.T, root string) *RunStore
		obs   bool
	}{
		{"verified-dir", func(t *testing.T, root string) *RunStore {
			s, err := NewRunStore(root)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, false},
		{"verified-lru-http", func(t *testing.T, root string) *RunStore {
			remote, err := runstore.NewDir(root)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(runstore.NewServer(remote))
			t.Cleanup(srv.Close)
			return NewRunStoreWithBackend(runstore.NewVerified(runstore.NewLRU(runstore.NewClient(srv.URL), 1<<20)))
		}, false},
		{"verified-dir-obs", func(t *testing.T, root string) *RunStore {
			s, err := NewRunStore(root)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			store := tc.stack(t, root)
			o := storeTestOpts
			if tc.obs {
				o.Obs = NewObsRecorder(ObsConfig{EpochInterval: 1000, TraceSpans: 500})
			}
			got, simulated := runWithStore(o, store, false)
			if !simulated || !reflect.DeepEqual(got, plain) {
				t.Fatalf("store-backed run (simulated=%v) diverged from Run:\ngot  %+v\nwant %+v", simulated, got, plain)
			}
			ents, err := os.ReadDir(root)
			if err != nil {
				t.Fatal(err)
			}
			var kinds []string
			for _, e := range ents {
				kinds = append(kinds, e.Name())
			}
			if want := []string{runstore.KindResults}; !reflect.DeepEqual(kinds, want) {
				t.Fatalf("backend holds kinds %v, want only %v", kinds, want)
			}

			served, simulated := runWithStore(storeTestOpts, store, true)
			if simulated || !reflect.DeepEqual(served, plain) {
				t.Fatalf("resume (simulated=%v) did not serve the stored result: %+v", simulated, served)
			}
			b := plain
			b.Metrics.Cycles++
			if err := store.PutResult(store.Key(storeTestOpts), b); err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
				t.Fatalf("differing rewrite not refused loudly: %v", err)
			}
		})
	}
}

// TestRunStoreResumeServesStoredResult: with resume set, a stored result is
// returned as-is without re-simulating.
func TestRunStoreResumeServesStoredResult(t *testing.T) {
	store, _ := testStore(t)
	key := store.Key(storeTestOpts)
	doctored := Result{App: "doctored", Scheme: "none", Cores: 1}
	if err := store.PutResult(key, doctored); err != nil {
		t.Fatal(err)
	}
	got := RunWithStore(storeTestOpts, store, true)
	if !reflect.DeepEqual(got, doctored) {
		t.Fatalf("resume did not serve the stored result: got %+v", got)
	}
	// Without resume the run recomputes — and must then fail loudly because
	// the stored bytes differ (collision guard).
	defer func() {
		if recover() == nil {
			t.Error("write-through over a differing stored result did not fail loudly")
		}
	}()
	RunWithStore(storeTestOpts, store, false)
}

// TestRunStoreKeyDistinct: perturbing any single Options field that can
// change a simulation's outcome must change the store key.
func TestRunStoreKeyDistinct(t *testing.T) {
	store, _ := testStore(t)
	base := Options{
		App:    App("barnes"),
		Scheme: Scheme{Kind: KindTiny, Ratio: 1.0 / 64, GNRU: true, Spill: true, SpillWindow: 256, FixedGenLen: 0},
		Scale:  Scale{Name: "keys", Cores: 16, Refs: 300},
	}
	perturbed := map[string]Options{}
	add := func(name string, mutate func(*Options)) {
		o := base
		mutate(&o)
		perturbed[name] = o
	}
	add("app", func(o *Options) { o.App = App("ocean_cp") })
	add("scheme.kind", func(o *Options) { o.Scheme.Kind = KindSparse })
	add("scheme.ratio", func(o *Options) { o.Scheme.Ratio = 1.0 / 128 })
	add("scheme.gnru", func(o *Options) { o.Scheme.GNRU = false })
	add("scheme.spill", func(o *Options) { o.Scheme.Spill = false })
	add("scheme.window", func(o *Options) { o.Scheme.SpillWindow = 128 })
	add("scheme.genlen", func(o *Options) { o.Scheme.FixedGenLen = 4 })
	add("scheme.format", func(o *Options) { o.Scheme.Kind = KindSparse; o.Scheme.EntryFormat = "ptr4" })
	add("scale.cores", func(o *Options) { o.Scale.Cores = 32 })
	add("scale.refs", func(o *Options) { o.Scale.Refs = 301 })
	add("scale.halved", func(o *Options) { o.Scale.HalveHierarchy = true })
	add("maxevents", func(o *Options) { o.MaxEvents = 123456 })
	add("fault.rate", func(o *Options) { o.FaultRate = 0.02 })
	add("fault.seed", func(o *Options) { o.FaultRate = 0.02; o.FaultSeed = 7 })

	baseKey := store.Key(base)
	seen := map[string]string{baseKey: "base"}
	for name, o := range perturbed {
		k := store.Key(o)
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbation %q collides with %q (key %s)", name, prev, k[:12])
		}
		seen[k] = name
	}
	// Keys are stable across store instances (content-addressed, no state).
	other, _ := testStore(t)
	if other.Key(base) != baseKey {
		t.Error("key differs between store instances")
	}
}

// TestRunStoreCollisionGuard: PutResult must refuse to replace an existing
// result with different bytes, and must accept an identical rewrite.
func TestRunStoreCollisionGuard(t *testing.T) {
	store, _ := testStore(t)
	key := store.Key(storeTestOpts)
	a := Result{App: "a", Scheme: "s", Cores: 16}
	if err := store.PutResult(key, a); err != nil {
		t.Fatal(err)
	}
	if err := store.PutResult(key, a); err != nil {
		t.Errorf("idempotent rewrite rejected: %v", err)
	}
	b := a
	b.Metrics.Cycles = 1
	err := store.PutResult(key, b)
	if err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Errorf("differing rewrite not refused loudly: %v", err)
	}
	got, ok, gerr := store.GetResult(key)
	if gerr != nil || !ok || !reflect.DeepEqual(got, a) {
		t.Errorf("original result damaged by refused overwrite: %+v ok=%v err=%v", got, ok, gerr)
	}
}

// TestRunStoreTruncatedResultIsMiss: a truncated (or otherwise corrupt)
// results/<key> entry is a cache miss with a warning — a resumed
// sweep re-simulates and replaces the debris, never dies on it.
func TestRunStoreTruncatedResultIsMiss(t *testing.T) {
	store, dir := testStore(t)
	key := store.Key(storeTestOpts)
	good := Result{App: "a", Scheme: "s", Cores: 16}
	if err := store.PutResult(key, good); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(resultFile(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	// Tear the entry, as a crash on a file system without atomic
	// renames could.
	if err := os.WriteFile(resultFile(dir, key), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	logBuf := captureDefaultLog(t)

	got, ok, gerr := store.GetResult(key)
	if gerr != nil {
		t.Fatalf("truncated result failed the lookup instead of missing: %v", gerr)
	}
	if ok {
		t.Fatalf("truncated result served as a hit: %+v", got)
	}
	var warnings []map[string]interface{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		if m["level"] == "WARN" && m["key"] == key {
			warnings = append(warnings, m)
		}
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0]["msg"].(string), "corrupt") {
		t.Fatalf("want one corruption warning naming the key on the miss, got %v\n%s", warnings, logBuf)
	}

	// The re-run's PutResult replaces the debris (no collision guard — the
	// old bytes are not a valid result).
	if err := store.PutResult(key, good); err != nil {
		t.Fatalf("PutResult over truncated entry failed: %v", err)
	}
	got, ok, gerr = store.GetResult(key)
	if gerr != nil || !ok || !reflect.DeepEqual(got, good) {
		t.Fatalf("store not healed after rewrite: %+v ok=%v err=%v", got, ok, gerr)
	}

	// End-to-end: a resumed store-backed run across a truncated entry
	// simulates and heals rather than failing.
	if err := os.WriteFile(resultFile(dir, key), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	res := RunWithStore(storeTestOpts, store, true)
	if res.Metrics.Cycles == 0 {
		t.Fatalf("resumed run over truncated entry produced no simulation: %+v", res)
	}
}

// captureDefaultLog routes slog's default logger into a JSON buffer for
// the rest of the test, then restores it and the log package's output
// (which slog.SetDefault redirects). Only non-parallel tests may call it.
func captureDefaultLog(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old, w, flags := slog.Default(), log.Writer(), log.Flags()
	t.Cleanup(func() {
		slog.SetDefault(old)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, nil)))
	return &buf
}

// TestSuiteStoreSweepIdentical: a small figure sweep through a store —
// cold, then resumed from the stored results — renders byte-identical
// CSV to a storeless sweep, and the resumed sweep simulates nothing.
func TestSuiteStoreSweepIdentical(t *testing.T) {
	scale := Scale{Name: "storesweep", Cores: 16, Refs: 300}
	render := func(store *RunStore, resume bool) ([]byte, int) {
		s := NewSuite(scale)
		s.Workers = 2
		s.Store = store
		s.Resume = resume
		var buf bytes.Buffer
		if err := buildFigure(s, "1").WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), s.Runs()
	}
	want, _ := render(nil, false)
	store, _ := testStore(t)
	if got, _ := render(store, false); !bytes.Equal(got, want) {
		t.Error("cold store-backed sweep CSV differs from storeless sweep")
	}
	got, runs := render(store, true)
	if !bytes.Equal(got, want) {
		t.Error("resumed sweep CSV differs from storeless sweep")
	}
	if runs != 0 {
		t.Errorf("resumed sweep simulated %d runs, want 0", runs)
	}
}

// TestRunStoreGC: -store-gc prunes entries older than the age bound,
// keeps younger ones, and in dry-run mode reports without deleting.
func TestRunStoreGC(t *testing.T) {
	store, dir := testStore(t)
	oldKey := strings.Repeat("a", 64)
	newKey := strings.Repeat("b", 64)
	if err := store.PutResult(oldKey, Result{App: "old"}); err != nil {
		t.Fatal(err)
	}
	if err := store.PutResult(newKey, Result{App: "new"}); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(resultFile(dir, oldKey), stale, stale); err != nil {
		t.Fatal(err)
	}

	stats, err := store.GC(24*time.Hour, true)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 2 || stats.Pruned != 1 || stats.Kept != 1 || stats.PrunedBytes <= 0 {
		t.Fatalf("dry-run stats wrong: %+v", stats)
	}
	if _, ok, _ := store.GetResult(oldKey); !ok {
		t.Fatal("dry-run deleted an entry")
	}

	stats, err = store.GC(24*time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pruned != 1 || stats.Kept != 1 {
		t.Fatalf("gc stats wrong: %+v", stats)
	}
	if _, ok, _ := store.GetResult(oldKey); ok {
		t.Fatal("stale entry survived gc")
	}
	if _, ok, _ := store.GetResult(newKey); !ok {
		t.Fatal("fresh entry pruned by gc")
	}
}

// TestRunStoreGCKinds: the per-kind breakdown behind `experiments
// -store-gc` — results and quarantine copies each age out by their own
// modification times.
func TestRunStoreGCKinds(t *testing.T) {
	store, dir := testStore(t)
	oldKey := strings.Repeat("c", 64)
	newKey := strings.Repeat("d", 64)
	quarKey := strings.Repeat("e", 64)
	if err := store.PutResult(oldKey, Result{App: "old"}); err != nil {
		t.Fatal(err)
	}
	if err := store.PutResult(newKey, Result{App: "new"}); err != nil {
		t.Fatal(err)
	}
	// An aged quarantine copy, plus the stale result.
	quarKind := runstore.QuarantineKind(runstore.KindResults)
	if err := store.Backend().Put(quarKind, quarKey, []byte("{corrupt}"), true); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-48 * time.Hour)
	for _, f := range []string{resultFile(dir, oldKey), filepath.Join(dir, quarKind, quarKey)} {
		if err := os.Chtimes(f, stale, stale); err != nil {
			t.Fatal(err)
		}
	}

	// Dry run first: the per-kind report (counts and would-reclaim
	// bytes) must be complete without anything being deleted.
	dry, err := store.GC(24*time.Hour, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(dry.Kinds) != 2 {
		t.Fatalf("dry-run walked kinds %v, want results and quarantine", dry.Kinds)
	}
	for _, kind := range []string{runstore.KindResults, quarKind} {
		ks := dry.Kinds[kind]
		if ks.Pruned == 0 || ks.PrunedBytes <= 0 {
			t.Fatalf("dry-run kind %s reports nothing to reclaim: %+v", kind, ks)
		}
	}
	if _, ok, _ := store.GetResult(oldKey); !ok {
		t.Fatal("dry run deleted an entry")
	}

	stats, err := store.GC(24*time.Hour, false)
	if err != nil {
		t.Fatal(err)
	}
	// Top-level stats count results only (the CLI's headline numbers).
	if stats.Scanned != 2 || stats.Pruned != 1 || stats.Kept != 1 {
		t.Fatalf("top-level stats: %+v", stats)
	}
	if ks := stats.Kinds[runstore.KindResults]; ks.Scanned != 2 || ks.Pruned != 1 || ks.Kept != 1 {
		t.Fatalf("results kind stats: %+v", ks)
	}
	if ks := stats.Kinds[quarKind]; ks.Scanned != 1 || ks.Pruned != 1 {
		t.Fatalf("quarantine kind stats: %+v", ks)
	}
	// The survivor still round-trips through the verified read path.
	if _, ok, err := store.GetResult(newKey); err != nil || !ok {
		t.Fatalf("fresh entry after gc: ok=%v err=%v", ok, err)
	}
}
