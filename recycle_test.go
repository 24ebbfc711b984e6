package tinydir

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
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
	// mid gives every tracker kind enough references per bank to leave
	// state (entries, spills, overflow and unbounded maps) behind for the
	// next run on its storage.
	mid := Scale{Name: "mid32", Cores: 32, Refs: 400}
	fixedGen := TinyDirectory(1.0/64, true, false)
	fixedGen.FixedGenLen = 4
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
			o.Obs = NewObsRecorder(ObsConfig{EpochInterval: 500, TraceSpans: 200})
			return o
		}},
		{name: "timeout", timeout: true, mk: func() Options {
			// Long enough to pass the first deadline check (deadlineChunk
			// events), which a nanosecond budget then fails.
			return Options{App: App("barnes"), Scheme: SparseDirectory(1.0 / 16),
				Scale: Scale{Name: "long16", Cores: 16, Refs: 20000}, Timeout: time.Nanosecond}
		}},
		{name: "sparse-small", mk: plain("compress", SparseDirectory(1.0/16), recycleScale)},
		{name: "sparse-format", mk: plain("SPECjbb", SparseDirectoryWithFormat(0.5, "ptr2"), mid)},
		{name: "sharedonly", mk: plain("barnes", SharedOnlyDirectory(1.0/16, false), mid)},
		{name: "sharedonly-skew", mk: plain("barnes", SharedOnlyDirectory(1.0/16, true), mid)},
		{name: "mgd", mk: plain("ocean_cp", MgD(1.0/16), mid)},
		{name: "inllc-tagext", mk: plain("TPC-C", InLLC(true), mid)},
		{name: "tiny-fixedgen", mk: plain("falseshare", fixedGen, mid)},
		{name: "stash-mid", mk: plain("worksteal", Stash(1.0/32), mid)},
	}
}

// runRecycleCase runs c once and returns its Result as JSON, or nil for
// the timeout run after checking that it did blow its deadline.
func runRecycleCase(t *testing.T, c recycleCase) []byte {
	t.Helper()
	b, err := recycleResult(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recycleResult is runRecycleCase for any goroutine: it reports a failed
// run as an error.
func recycleResult(c recycleCase) ([]byte, error) {
	var r Result
	err := guard(func() { r = Run(c.mk()) })
	if c.timeout {
		var rp *runPanic
		if !errors.As(err, &rp) || rp.dump == "" {
			return nil, fmt.Errorf("%s: want a wall-clock timeout with a stall dump, got %v", c.name, err)
		}
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", c.name, err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", c.name, err)
	}
	return b, nil
}

// recycleCaseEnv names the one case a child process of
// TestRecycledMachineIdentical runs; the child prints its Result JSON
// after recycleResultPrefix.
const (
	recycleCaseEnv      = "TINYDIR_RECYCLE_CASE"
	recycleResultPrefix = "recycle-result: "
)

// freshRecycleResult runs c in a child process, the only way to give it
// storage no earlier run of this process released: the free lists keep
// every entry they are handed.
func freshRecycleResult(t *testing.T, c recycleCase) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecycledMachineIdentical$", "-test.count=1")
	cmd.Env = append(os.Environ(), recycleCaseEnv+"="+c.name)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: child run: %v\n%s", c.name, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, recycleResultPrefix); ok {
			if rest == "" {
				return nil
			}
			return []byte(rest)
		}
	}
	t.Fatalf("%s: child printed no result:\n%s", c.name, out)
	return nil
}

// TestRecycledMachineIdentical runs a mixed list back to back, so every
// run builds its machine from the storage earlier runs released (engine
// queue, bank tables, cache and tracker slabs), and requires each run's
// Result to equal that of the same run made on fresh storage in a child
// process. Two orders hand each run a different predecessor's storage.
func TestRecycledMachineIdentical(t *testing.T) {
	cases := recycleCases()
	if name := os.Getenv(recycleCaseEnv); name != "" {
		for _, c := range cases {
			if c.name == name {
				os.Stdout.Write(append(append([]byte(recycleResultPrefix), runRecycleCase(t, c)...), '\n'))
				return
			}
		}
		t.Fatalf("no recycle case %q", name)
	}
	want := make([][]byte, len(cases))
	for i, c := range cases {
		want[i] = freshRecycleResult(t, c)
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
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("%s on recycled storage (order %v) differs from a run on fresh storage:\n got %s\nwant %s",
					cases[i].name, order, got, want[i])
			}
		}
	}
}

// TestRecycledStorageConcurrent runs the mixed list on two goroutines at
// once, in opposite orders, and requires every Result to equal the same
// run made alone. A tracker, node slab or queue handed to two live
// machines at once would mix their states; under -race the shared writes
// are reported as well.
func TestRecycledStorageConcurrent(t *testing.T) {
	cases := recycleCases()
	want := make([][]byte, len(cases))
	for i, c := range cases {
		want[i] = runRecycleCase(t, c)
	}
	var got [2][][]byte
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([][]byte, len(cases))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cases {
				i := k
				if g == 1 {
					i = len(cases) - 1 - k
				}
				b, err := recycleResult(cases[i])
				if err != nil {
					errs[g] = err
					return
				}
				got[g][i] = b
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i, c := range cases {
			if !bytes.Equal(got[g][i], want[i]) {
				t.Fatalf("%s on goroutine %d, next to another sweep, differs from the same run alone:\n got %s\nwant %s",
					c.name, g, got[g][i], want[i])
			}
		}
	}
}

// shortRunAllocsGate is the CI bar for short 128-core runs, units as small
// as soak and fleet units, whose cost is dominated by machine construction
// and teardown: 0.0119 allocs/ref measured, plus about 15% (0.1464 when
// every machine still built its trackers, node slabs and DRAM queues
// from nothing).
const shortRunAllocsGate = 0.0137

// shortRunOptions is the short 128-core unit list: the 17 applications
// under the sparse directory at 2x, the full tiny directory at 1/256x and
// in-LLC tracking, with 16 references per core.
func shortRunOptions() []Options {
	var opts []Options
	for _, app := range Apps() {
		for _, sch := range []Scheme{SparseDirectory(2), TinyDirectory(1.0/256, true, true), InLLC(false)} {
			opts = append(opts, Options{App: app, Scheme: sch, Scale: recycleScale})
		}
	}
	return opts
}

// TestShortRunAllocsGate fails the build when short runs stop reusing the
// storage of the runs before them. It runs shortRunOptions once to fill
// the free lists and once measured.
func TestShortRunAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("-race inflates allocations")
	}
	opts := shortRunOptions()
	pass := func() uint64 {
		for _, o := range opts {
			Run(o)
		}
		return uint64(len(opts)) * uint64(recycleScale.Cores) * uint64(recycleScale.Refs)
	}
	m := measureGated(hotpathCase{name: "ShortRuns128", run: pass})
	t.Logf("%s: %.4f allocs/ref (gate %.4f), %.1f B/ref, %.1f ns/ref",
		m.Name, m.AllocsPerRef, shortRunAllocsGate, m.BytesPerRef, m.NsPerRef)
	if m.AllocsPerRef > shortRunAllocsGate {
		t.Errorf("%s allocates %.4f/ref, above the %.4f gate: short runs no longer reuse released storage",
			m.Name, m.AllocsPerRef, shortRunAllocsGate)
	}
}

// TestCollectionsKeepRecycledStorage: a garbage collection takes nothing
// from the free lists, so a run allocates the same whether or not the
// collector ran before it. Once the short unit list has filled the lists,
// a pass over it and a pass with two collections before every unit must
// count the same heap allocations. Filling takes two passes: a list hands
// back its newest entry first, so in the next machine each bank gets the
// tracker (with its grown buffers) of the bank mirrored to it, and a list
// of odd length serves each bank from the other half on the second pass. Only the runs are counted:
// after each collection the runtime prunes its own weak-keyed tables on
// another goroutine, which the yield lets finish first.
func TestCollectionsKeepRecycledStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("-race inflates allocations")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	opts := shortRunOptions()
	pass := func(collect bool) uint64 {
		var ms0, ms1 runtime.MemStats
		var n uint64
		for _, o := range opts {
			if collect {
				runtime.GC()
				runtime.GC()
				runtime.Gosched()
			}
			runtime.ReadMemStats(&ms0)
			Run(o)
			runtime.ReadMemStats(&ms1)
			n += ms1.Mallocs - ms0.Mallocs
		}
		return n
	}
	pass(false)
	pass(false)
	plain := pass(false)
	collected := pass(true)
	t.Logf("%d units: %d allocations plain, %d with collections", len(opts), plain, collected)
	if plain != collected {
		t.Errorf("%d allocations with two collections before each unit, %d without: a collection dropped recycled storage",
			collected, plain)
	}
}
