package tinydir

// The hot-path benchmark family tracks the cost of one simulated trace
// reference through the whole stack (event queue, mesh, banks, DRAM) —
// the unit every figure's wall-clock is made of. Unlike the per-figure
// benchmarks in bench_test.go, these build a fresh Suite per iteration
// so nothing is served from the memoization cache: every number is a
// real simulation.
//
// `go test -bench BenchmarkHotPath -benchmem .` reports ns/ref and
// allocs/ref as custom metrics for interactive before/after comparisons;
// the allocation gates below pin allocs/ref, which the deterministic
// simulator repeats exactly. Recorded measurements come from the
// benchmark module in bench/ (`bash bench/run.sh`).

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

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
	Name         string
	NsPerRef     float64
	AllocsPerRef float64
	BytesPerRef  float64
}

// measureRun runs c once and measures its cost per reference.
func measureRun(c hotpathCase) hotpathMeasurement {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	refs := c.run()
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return hotpathMeasurement{
		Name:         c.name,
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
// steady state of 0.0020 allocs/ref (every run builds its machine on the
// node slabs, trackers, DRAM queues, engine queue and cache slabs its
// predecessors released, and sharer sets are inline values) plus about
// 15% headroom. Wall-clock is NOT gated —
// ns/ref depends on the machine — so only the allocation count, which
// measureGated makes repeatable, can regress the build.
const allocsPerRefGate = 0.0023

// TestAllocsPerRefGate fails the build when the hot path regresses past
// the allocation budget. It runs the full Fig. 1 sweep at 128 cores, once
// to fill the free lists and once measured (see measureGated).
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
		t.Errorf("%s allocates %.4f/ref, above the %.4f gate — the hot path regressed",
			m.Name, m.AllocsPerRef, allocsPerRefGate)
	}
}

// trackerAllocsGate is the CI bar for the trackers that keep state in
// the LLC or drop it (tiny directory with spilling, Stash), on the
// write-heavy families: 0.0088 allocs/ref measured, plus about 15%.
const trackerAllocsGate = 0.0101

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
	t.Logf("%s: %.4f allocs/ref (gate %.4f), %.1f B/ref, %.1f ns/ref",
		m.Name, m.AllocsPerRef, trackerAllocsGate, m.BytesPerRef, m.NsPerRef)
	if m.AllocsPerRef > trackerAllocsGate {
		t.Errorf("%s allocates %.4f/ref, above the %.4f gate: a tracker's commit path allocates again",
			m.Name, m.AllocsPerRef, trackerAllocsGate)
	}
}
