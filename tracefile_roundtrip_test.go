package tinydir

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tinydir/internal/trace"
	"tinydir/internal/tracefile"
)

// writeTraceFor generates app's traces exactly like the simulator's
// generator path does and writes them through the trace-file format —
// the same pipeline as `tracegen -write`.
func writeTraceFor(t *testing.T, app Profile, cores, refs int) *TraceInput {
	t.Helper()
	g := trace.NewGen(app, cores)
	tf := &tracefile.File{Name: app.Name, Traces: g.Traces(refs), Stats: g.Stats()}
	path := filepath.Join(t.TempDir(), app.Name+".trace")
	if _, err := tracefile.WriteFile(path, tf); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceFileRoundTripMetrics pins the replay contract: a trace
// written to a file, read back, and driven through the machine produces
// byte-identical Metrics to driving the same in-memory generator
// directly — at 16 and 128 cores, for a family workload and a classic
// one.
func TestTraceFileRoundTripMetrics(t *testing.T) {
	refs := 400
	if testing.Short() {
		refs = 150
	}
	scheme := TinyDirectory(1.0/64, true, true)
	for _, appName := range []string{"worksteal", "barnes"} {
		for _, cores := range []int{16, 128} {
			if testing.Short() && cores == 128 {
				continue
			}
			app := App(appName)
			sc := Scale{Name: "rt", Cores: cores, Refs: refs}
			direct := Run(Options{App: app, Scheme: scheme, Scale: sc})
			tr := writeTraceFor(t, app, cores, refs)
			replayed := Run(Options{Trace: tr, Scheme: scheme, Scale: Scale{Name: "rt"}})
			if !reflect.DeepEqual(direct.Metrics, replayed.Metrics) {
				t.Errorf("%s @ %d cores: replayed metrics differ from direct run\ndirect:   %+v\nreplayed: %+v",
					appName, cores, direct.Metrics, replayed.Metrics)
			}
			if direct.App != replayed.App || direct.Cores != replayed.Cores {
				t.Errorf("%s @ %d cores: result identity differs: %+v vs %+v",
					appName, cores, direct, replayed)
			}
		}
	}
}

// TestTraceDigestInStoreKey pins the dedup rule: the store key of a
// trace-driven run incorporates the trace digest — identical content
// maps to one key, changed content to another.
func TestTraceDigestInStoreKey(t *testing.T) {
	store, err := NewRunStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	app := App("ringbuf")
	a := writeTraceFor(t, app, 8, 100)
	b := writeTraceFor(t, app, 8, 100)
	scheme := TinyDirectory(1.0/64, true, true)
	keyA := store.Key(Options{Trace: a, Scheme: scheme})
	keyB := store.Key(Options{Trace: b, Scheme: scheme})
	if keyA != keyB {
		t.Error("identical trace content produced different store keys")
	}
	mutated := App("ringbuf")
	mutated.Seed++
	c := writeTraceFor(t, mutated, 8, 100)
	if store.Key(Options{Trace: c, Scheme: scheme}) == keyA {
		t.Error("different trace content produced the same store key")
	}
	gen := store.Key(Options{App: app, Scheme: scheme, Scale: Scale{Name: "t", Cores: 8, Refs: 100}})
	if gen == keyA {
		t.Error("generator-path key collides with trace-path key")
	}
}

// TestTraceFileAboveCoreLimit pins the 128-core cap at the trace-file
// entry points. Loading a 256-core trace file fails with an error naming
// the limit. A run handed 256 in-memory streams fails with the machine's
// own validation error (caught by guard, as in a sweep), not with a
// crash deep inside the sharer vectors.
func TestTraceFileAboveCoreLimit(t *testing.T) {
	const cores = 256
	g := trace.NewGen(App("barnes"), cores)
	tf := &tracefile.File{Name: "barnes", Traces: g.Traces(8), Stats: g.Stats()}
	path := filepath.Join(t.TempDir(), "barnes256.trace")
	if _, err := tracefile.WriteFile(path, tf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTraceFile(path); err == nil || !strings.Contains(err.Error(), "128") {
		t.Fatalf("LoadTraceFile of a %d-core trace: err = %v, want an error naming the 128-core limit", cores, err)
	}
	tr := &TraceInput{Name: tf.Name, Traces: tf.Traces, Stats: tf.Stats}
	err := guard(func() { Run(Options{Trace: tr, Scheme: SparseDirectory(2)}) })
	if err == nil || !strings.Contains(err.Error(), "exceed the 128-core limit") {
		t.Fatalf("Run of a %d-core trace: err = %v, want the 128-core validation error", cores, err)
	}
}
