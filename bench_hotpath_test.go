package tinydir

// The hot-path benchmark family tracks the cost of one simulated trace
// reference through the whole stack (event queue, mesh, banks, DRAM) —
// the unit every figure's wall-clock is made of. Unlike the per-figure
// benchmarks in bench_test.go, these build a fresh Suite per iteration
// so nothing is served from the memoization cache: every number is a
// real simulation.
//
// Two consumers:
//
//   - `go test -bench BenchmarkHotPath -benchmem .` for interactive
//     before/after comparisons (ns/ref and allocs/ref are reported as
//     custom metrics);
//   - `go test -run TestHotPathJSON -hotpath.json BENCH_hotpath.json .`
//     regenerates the checked-in BENCH_hotpath.json, which records the
//     pre-overhaul baseline alongside fresh numbers so the repository
//     keeps a perf trajectory. allocs/ref is hardware-independent (the
//     simulator is deterministic); ns/ref is indicative only.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

var hotpathJSONPath = flag.String("hotpath.json", "", "write hot-path measurements to this file (see BENCH_hotpath.json)")

// hotScale128 is the paper's 128-core machine with trace slices short
// enough that a full Fig. 1 sweep (68 simulations) stays in benchmark
// territory.
var hotScale128 = Scale{Name: "hot128", Cores: 128, Refs: 400}

// hotpathCase is one measured workload; run executes it and returns the
// number of simulated trace references it retired.
type hotpathCase struct {
	name string
	run  func() uint64
}

func hotpathCases() []hotpathCase {
	return []hotpathCase{
		{"SingleRun32", func() uint64 {
			o := Options{App: App("barnes"), Scheme: SparseDirectory(2), Scale: ScaleExperiment}
			r := Run(o)
			if r.Metrics.Cycles == 0 {
				panic("hotpath: empty run")
			}
			return uint64(ScaleExperiment.Cores) * uint64(ScaleExperiment.Refs)
		}},
		{"SingleRun128", func() uint64 {
			o := Options{App: App("bodytrack"), Scheme: TinyDirectory(1.0/128, true, true), Scale: hotScale128}
			r := Run(o)
			if r.Metrics.Cycles == 0 {
				panic("hotpath: empty run")
			}
			return uint64(hotScale128.Cores) * uint64(hotScale128.Refs)
		}},
		{"Fig01At128", func() uint64 {
			s := NewSuite(hotScale128)
			f := buildFigure(s, "1")
			if len(f.Series) == 0 {
				panic("hotpath: Fig1 produced no data")
			}
			return uint64(s.Runs()) * uint64(hotScale128.Cores) * uint64(hotScale128.Refs)
		}},
	}
}

// BenchmarkHotPath reports ns and heap allocations per simulated trace
// reference for each workload. CI runs it with -benchtime=1x as a smoke
// test; locally, compare runs with benchstat.
func BenchmarkHotPath(b *testing.B) {
	for _, c := range hotpathCases() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var refs uint64
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refs += c.run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(refs), "allocs/ref")
		})
	}
}

// hotpathMeasurement is one workload's cost per simulated reference.
type hotpathMeasurement struct {
	Name         string  `json:"name"`
	Refs         uint64  `json:"refs"`
	WallMS       float64 `json:"wall_ms"`
	NsPerRef     float64 `json:"ns_per_ref"`
	AllocsPerRef float64 `json:"allocs_per_ref"`
	BytesPerRef  float64 `json:"bytes_per_ref"`
}

// hotpathBaseline pins the seed-state numbers, measured with this same
// harness immediately before the hot-path overhaul (closure-boxed
// container/heap event queue, map[uint64] transaction state). They are
// the "before" column of BENCH_hotpath.json; allocs/ref and bytes/ref
// are deterministic, ns/ref reflects the recording machine.
var hotpathBaseline = []hotpathMeasurement{
	{Name: "SingleRun32", Refs: 128000, WallMS: 459, NsPerRef: 3586.0, AllocsPerRef: 15.471, BytesPerRef: 678.4},
	{Name: "SingleRun128", Refs: 51200, WallMS: 381, NsPerRef: 7441.4, AllocsPerRef: 22.081, BytesPerRef: 2665.1},
	{Name: "Fig01At128", Refs: 3481600, WallMS: 24436, NsPerRef: 7018.6, AllocsPerRef: 23.934, BytesPerRef: 3064.5},
}

// hotpathPooledEvents pins the first overhaul's numbers (pooled Handler
// events on a binary heap, open-addressed transaction tables), measured
// on that overhaul's recording machine. The calendar-queue work was
// accepted against this row: ≥2x ns/ref on Fig01At128 and allocs/ref
// below 0.5.
var hotpathPooledEvents = []hotpathMeasurement{
	{Name: "SingleRun32", Refs: 128000, WallMS: 221, NsPerRef: 1728.8, AllocsPerRef: 2.152, BytesPerRef: 330.8},
	{Name: "SingleRun128", Refs: 51200, WallMS: 193, NsPerRef: 3775.2, AllocsPerRef: 1.751, BytesPerRef: 2081.4},
	{Name: "Fig01At128", Refs: 3481600, WallMS: 14011, NsPerRef: 4024.4, AllocsPerRef: 2.231, BytesPerRef: 2473.3},
}

func measureHotpath(c hotpathCase) hotpathMeasurement {
	runtime.GC()
	return measureRun(c)
}

// measureRun is measureHotpath without the leading collection.
func measureRun(c hotpathCase) hotpathMeasurement {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	refs := c.run()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return hotpathMeasurement{
		Name:         c.name,
		Refs:         refs,
		WallMS:       float64(wall.Microseconds()) / 1e3,
		NsPerRef:     float64(wall.Nanoseconds()) / float64(refs),
		AllocsPerRef: float64(ms1.Mallocs-ms0.Mallocs) / float64(refs),
		BytesPerRef:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(refs),
	}
}

// measureGated measures c for an allocation gate, so that the count
// repeats from run to run. One unmeasured run fills the free lists, so
// the count leaves out the fresh storage of the first machines each
// worker built (about 16k allocations at 128 cores). Both runs use one
// processor with the collector held off, because the standard library
// still recycles through sync.Pool (fmt's printers, per processor and
// emptied by each collection) and the runtime allocates after each
// collection: the number of collections and where goroutines ran would
// otherwise add a few allocations. The memory limit still collects if a
// regression makes every run allocate fresh slabs.
func measureGated(c hotpathCase) hotpathMeasurement {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(1 << 30))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c.run()
	return measureRun(c)
}

// allocsPerRefGate is the CI regression bar for Fig01At128: the recorded
// steady state of 0.0124 allocs/ref (every run reuses the engine queue,
// bank tables and cache slabs its predecessors released, and sharer sets
// are inline values) plus about 15% headroom. Wall-clock is NOT gated —
// ns/ref depends on the machine — so only the allocation count, which
// measureGated makes repeatable, can regress the build.
const allocsPerRefGate = 0.0143

// TestAllocsPerRefGate fails the build when the hot path regresses past
// the allocation budget. It runs the same full Fig. 1 sweep the JSON
// trajectory records, once to fill the free lists and once measured (see
// measureGated).
func TestAllocsPerRefGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 1 sweep is slow (and -race inflates allocations)")
	}
	cases := hotpathCases()
	c := cases[len(cases)-1]
	if c.name != "Fig01At128" {
		t.Fatalf("expected Fig01At128 last in hotpathCases, got %s", c.name)
	}
	m := measureGated(c)
	t.Logf("%s: %.4f allocs/ref (gate %.4f), %.1f ns/ref", m.Name, m.AllocsPerRef, allocsPerRefGate, m.NsPerRef)
	if m.AllocsPerRef > allocsPerRefGate {
		t.Errorf("%s allocates %.4f/ref, above the %.4f gate — the hot path regressed (see BENCH_hotpath.json for the trajectory)",
			m.Name, m.AllocsPerRef, allocsPerRefGate)
	}
}

// trackerAllocsGate is the CI bar for the trackers that keep state in
// the LLC or drop it (tiny directory with spilling, Stash), on the
// write-heavy families: 0.0362 allocs/ref measured, plus about 15%.
const trackerAllocsGate = 0.042

// TestTrackerAllocsGate fails the build when a tracker's commit path
// starts allocating again: spilled and corrupted in-LLC entries,
// reconstruction messages, back-invalidation lists and Stash's dropped
// entries. It runs the five generator families under the tiny directory
// at 1/64x with gNRU and spilling and under Stash at 1/32x, on the
// 128-core machine with 400 references per core, once to fill the free lists
// and once measured (see measureGated).
func TestTrackerAllocsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("-race inflates allocations")
	}
	var opts []Options
	for _, app := range FamilyApps() {
		for _, sch := range []Scheme{TinyDirectory(1.0/64, true, true), Stash(1.0 / 32)} {
			opts = append(opts, Options{App: app, Scheme: sch, Scale: hotScale128})
		}
	}
	pass := func() uint64 {
		for _, o := range opts {
			Run(o)
		}
		return uint64(len(opts)) * uint64(hotScale128.Cores) * uint64(hotScale128.Refs)
	}
	m := measureGated(hotpathCase{name: "TrackerFamilies128", run: pass})
	t.Logf("%s: %.4f allocs/ref (gate %.3f), %.1f B/ref, %.1f ns/ref",
		m.Name, m.AllocsPerRef, trackerAllocsGate, m.BytesPerRef, m.NsPerRef)
	if m.AllocsPerRef > trackerAllocsGate {
		t.Errorf("%s allocates %.4f/ref, above the %.3f gate: a tracker's commit path allocates again",
			m.Name, m.AllocsPerRef, trackerAllocsGate)
	}
}

// TestHotPathJSON regenerates BENCH_hotpath.json when -hotpath.json is
// set; otherwise it is skipped. Each workload runs exactly once (the
// simulator is deterministic, so alloc counts are exact).
func TestHotPathJSON(t *testing.T) {
	if *hotpathJSONPath == "" {
		t.Skip("pass -hotpath.json <path> to write hot-path measurements")
	}
	doc := struct {
		Comment      string               `json:"comment"`
		GoVersion    string               `json:"go_version"`
		Before       []hotpathMeasurement `json:"before"`
		PooledEvents []hotpathMeasurement `json:"pooled_events"`
		After        []hotpathMeasurement `json:"after"`
	}{
		Comment: "Cost per simulated trace reference. 'before' is the pre-overhaul seed " +
			"(boxed closure heap + map state) and 'pooled_events' the first overhaul " +
			"(pooled Handler events, open-addressed tables), both pinned in " +
			"bench_hotpath_test.go; 'after' is the calendar-queue engine with address-keyed " +
			"tables and recycled cache slabs, regenerated by " +
			"`go test -run TestHotPathJSON -hotpath.json BENCH_hotpath.json .`. " +
			"allocs/ref and bytes/ref are deterministic; ns/ref depends on the machine.",
		GoVersion:    runtime.Version(),
		Before:       hotpathBaseline,
		PooledEvents: hotpathPooledEvents,
	}
	round := func(v float64, digits int) float64 {
		p := math.Pow(10, float64(digits))
		return math.Round(v*p) / p
	}
	for _, c := range hotpathCases() {
		m := measureHotpath(c)
		m.WallMS = round(m.WallMS, 0)
		m.NsPerRef = round(m.NsPerRef, 1)
		m.AllocsPerRef = round(m.AllocsPerRef, 3)
		m.BytesPerRef = round(m.BytesPerRef, 1)
		doc.After = append(doc.After, m)
		t.Logf("%s: %.1f ns/ref, %.3f allocs/ref, %.1f bytes/ref (%d refs in %.0f ms)",
			m.Name, m.NsPerRef, m.AllocsPerRef, m.BytesPerRef, m.Refs, m.WallMS)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*hotpathJSONPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *hotpathJSONPath)
}
