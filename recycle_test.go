package tinydir

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// recycleScale is the short 128-core unit of the paper's sweeps and of the
// short-run allocation gate: every run is mostly construction and teardown,
// so storage handed from one run to the next is exercised hardest.
var recycleScale = Scale{Name: "short128", Cores: 128, Refs: 16}

// recycleCase is one run of the mixed list; mk builds fresh Options each
// time, since an observability recorder belongs to exactly one run.
type recycleCase struct {
	name string
	mk   func() Options
	// timeout marks the run that blows its wall-clock deadline: it panics
	// out of the run and never releases its storage.
	timeout bool
}

func recycleCases() []recycleCase {
	plain := func(app string, sch Scheme, sc Scale) func() Options {
		return func() Options { return Options{App: App(app), Scheme: sch, Scale: sc} }
	}
	small := Scale{Name: "short16", Cores: 16, Refs: 64}
	return []recycleCase{
		{name: "sparse", mk: plain("barnes", SparseDirectory(2), recycleScale)},
		{name: "tiny", mk: plain("TPC-C", TinyDirectory(1.0/256, true, true), recycleScale)},
		{name: "inllc", mk: plain("ocean_cp", InLLC(false), recycleScale)},
		{name: "faults", mk: func() Options {
			return Options{App: App("falseshare"), Scheme: SparseDirectory(0.5), Scale: recycleScale,
				FaultRate: 0.01, FaultSeed: 4}
		}},
		{name: "cores16", mk: plain("bodytrack", Stash(0.25), small)},
		{name: "obs", mk: func() Options {
			o := Options{App: App("SPECjbb"), Scheme: TinyDirectory(1.0/64, true, true), Scale: recycleScale}
			o.Obs = NewObsRecorder(ObsConfig{EpochInterval: 500, Latency: true, TraceSpans: 200})
			return o
		}},
		{name: "timeout", timeout: true, mk: func() Options {
			// Long enough to pass the first deadline check (deadlineChunk
			// events), which a nanosecond budget then fails.
			return Options{App: App("barnes"), Scheme: SparseDirectory(1.0 / 16),
				Scale: Scale{Name: "long16", Cores: 16, Refs: 20000}, Timeout: time.Nanosecond}
		}},
		{name: "sparse-small", mk: plain("compress", SparseDirectory(1.0/16), recycleScale)},
	}
}

// runRecycleCase runs c once and returns its metrics, or nil for the
// timeout run after checking that it did blow its deadline.
func runRecycleCase(t *testing.T, c recycleCase) *Metrics {
	t.Helper()
	var r Result
	err := guard(func() { r = Run(c.mk()) })
	if c.timeout {
		var rp *runPanic
		if !errors.As(err, &rp) || rp.dump == "" {
			t.Fatalf("%s: want a wall-clock timeout with a stall dump, got %v", c.name, err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return &r.Metrics
}

// TestRecycledMachineIdentical runs a mixed list back to back, so every
// run builds its machine from the storage earlier runs released (engine
// queue, bank tables, cache and tracker slabs), and requires each run's
// Metrics to equal those of the same run made on drained pools. Two orders
// hand each run a different predecessor's storage.
func TestRecycledMachineIdentical(t *testing.T) {
	cases := recycleCases()
	want := make([]*Metrics, len(cases))
	for i, c := range cases {
		// Two collections empty every sync.Pool (primary, then victim
		// cache), so the run starts from freshly allocated storage.
		runtime.GC()
		runtime.GC()
		want[i] = runRecycleCase(t, c)
	}
	forward := make([]int, len(cases))
	for i := range forward {
		forward[i] = i
	}
	backward := make([]int, len(cases))
	for i := range backward {
		backward[i] = len(cases) - 1 - i
	}
	for _, order := range [][]int{forward, backward} {
		for _, i := range order {
			got := runRecycleCase(t, cases[i])
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s on recycled storage (order %v) differs from a run on fresh storage:\n got %+v\nwant %+v",
					cases[i].name, order, got, want[i])
			}
		}
	}
}

// shortRunAllocsGate is the CI bar for short 128-core runs, units as small
// as soak and fleet units, whose cost is dominated by machine construction
// and teardown: 0.168 allocs/ref measured, plus about 15%.
const shortRunAllocsGate = 0.195

// TestShortRunAllocsGate fails the build when short runs stop reusing the
// storage of the runs before them. It runs the 17 applications under the
// sparse directory at 2x, the full tiny directory at 1/256x and in-LLC
// tracking on the 128-core machine with 16 references per core, once to
// fill the pools and once measured.
func TestShortRunAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("-race inflates allocations")
	}
	var opts []Options
	for _, app := range Apps() {
		for _, sch := range []Scheme{SparseDirectory(2), TinyDirectory(1.0/256, true, true), InLLC(false)} {
			opts = append(opts, Options{App: app, Scheme: sch, Scale: recycleScale})
		}
	}
	pass := func() uint64 {
		for _, o := range opts {
			Run(o)
		}
		return uint64(len(opts)) * uint64(recycleScale.Cores) * uint64(recycleScale.Refs)
	}
	m := measureGated(hotpathCase{name: "ShortRuns128", run: pass})
	t.Logf("%s: %.4f allocs/ref (gate %.3f), %.1f B/ref, %.1f ns/ref",
		m.Name, m.AllocsPerRef, shortRunAllocsGate, m.BytesPerRef, m.NsPerRef)
	if m.AllocsPerRef > shortRunAllocsGate {
		t.Errorf("%s allocates %.4f/ref, above the %.3f gate: short runs no longer reuse released storage",
			m.Name, m.AllocsPerRef, shortRunAllocsGate)
	}
}
