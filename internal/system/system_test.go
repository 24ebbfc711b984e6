package system

import (
	"io"
	"reflect"
	"testing"

	"tinydir/internal/core"
	"tinydir/internal/dir"
	"tinydir/internal/proto"
	"tinydir/internal/trace"
)

// testTraces builds a small deterministic workload.
func testTraces(cores, refs int, app string) [][]trace.Ref {
	p, ok := trace.AppByName(app)
	if !ok {
		panic("unknown app " + app)
	}
	return trace.NewGen(p, cores).Traces(refs)
}

func sparseCfg(cores int, ratio float64) Config {
	cfg := TestConfig(cores)
	cfg.NewTracker = func(bank int) proto.Tracker {
		return dir.NewSparse(cfg.DirEntriesPerSlice(ratio))
	}
	return cfg
}

func runApp(t *testing.T, cfg Config, app string, refs int) Metrics {
	t.Helper()
	sys := New(cfg, testTraces(cfg.Cores, refs, app))
	m := sys.Run(200_000_000)
	if m.Cycles == 0 {
		t.Fatal("no cycles recorded")
	}
	return m
}

func TestSparseSmoke(t *testing.T) {
	cfg := sparseCfg(8, 2.0)
	m := runApp(t, cfg, "bodytrack", 2000)
	if m.PrivateMisses == 0 || m.LLCAccesses == 0 {
		t.Fatalf("no traffic: %+v", m)
	}
	if m.L1Hits == 0 {
		t.Fatal("no L1 hits — locality model broken")
	}
}

func TestCoherenceAllSchemes(t *testing.T) {
	cores := 8
	mk := map[string]func(cfg Config) func(int) proto.Tracker{
		"sparse2x": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSparse(cfg.DirEntriesPerSlice(2.0)) }
		},
		"sparse-sixteenth": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSparse(cfg.DirEntriesPerSlice(1.0 / 16)) }
		},
		"sharedonly": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSharedOnly(cfg.DirEntriesPerSlice(1.0/16), false) }
		},
		"sharedonly-skew": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSharedOnly(cfg.DirEntriesPerSlice(1.0/16), true) }
		},
		"stash": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewStash(cfg.DirEntriesPerSlice(1.0 / 16)) }
		},
		"mgd": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewMgD(cfg.DirEntriesPerSlice(1.0 / 16)) }
		},
		"inllc": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return core.NewInLLC(false) }
		},
		"inllc-tagext": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return core.NewInLLC(true) }
		},
		"tiny-dstra": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return core.NewTiny(core.TinyConfig{Entries: 8}) }
		},
		"tiny-gnru": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return core.NewTiny(core.TinyConfig{Entries: 8, GNRU: true}) }
		},
		"tiny-spill": func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return core.NewTiny(core.TinyConfig{Entries: 8, GNRU: true, Spill: true}) }
		},
	}
	apps := []string{"bodytrack", "barnes", "ocean_cp", "TPC-C"}
	for name, mkTracker := range mk {
		for _, app := range apps {
			t.Run(name+"/"+app, func(t *testing.T) {
				cfg := TestConfig(cores)
				cfg.NewTracker = mkTracker(cfg)
				sys := New(cfg, testTraces(cores, 1500, app))
				m := sys.Run(200_000_000)
				if m.Cycles == 0 {
					t.Fatal("no cycles")
				}
				if bad := sys.CheckCoherence(false); len(bad) > 0 {
					max := len(bad)
					if max > 5 {
						max = 5
					}
					t.Fatalf("%d coherence violations, first: %v", len(bad), bad[:max])
				}
			})
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Metrics {
		cfg := sparseCfg(8, 1.0/8)
		sys := New(cfg, testTraces(8, 2000, "barnes"))
		return sys.Run(200_000_000)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.LLCAccesses != b.LLCAccesses || a.TotalTraffic() != b.TotalTraffic() {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// Smaller directories must not be faster than a generously sized one on a
// directory-pressure workload, and must generate back-invalidations.
func TestDirectoryPressureOrdering(t *testing.T) {
	run := func(ratio float64) Metrics {
		cfg := sparseCfg(8, ratio)
		sys := New(cfg, testTraces(8, 4000, "TPC-C"))
		return sys.Run(400_000_000)
	}
	big := run(2.0)
	small := run(1.0 / 32)
	if small.BackInvals == 0 {
		t.Fatal("tiny sparse directory produced no back-invalidations")
	}
	if small.BackInvals <= big.BackInvals {
		t.Fatalf("back-invals: small %d <= big %d", small.BackInvals, big.BackInvals)
	}
	// Back-invalidations force re-fetches: the undersized directory must
	// suffer more private misses. (Cycle ordering is asserted at full
	// scale by the Fig. 1 experiment; at test scale it is noise-prone.)
	if small.PrivateMisses <= big.PrivateMisses {
		t.Fatalf("private misses: small %d <= big %d", small.PrivateMisses, big.PrivateMisses)
	}
}

// The in-LLC scheme must lengthen shared-read critical paths that the
// sparse baseline serves in two hops.
func TestInLLCLengthensSharedReads(t *testing.T) {
	cfg := TestConfig(8)
	cfg.NewTracker = func(int) proto.Tracker { return core.NewInLLC(false) }
	m := runApp(t, cfg, "barnes", 3000)
	if m.LengthenedCode+m.LengthenedData == 0 {
		t.Fatal("in-LLC tracking produced no lengthened accesses on barnes")
	}
	// The tag-extended variant must not lengthen anything.
	cfg2 := TestConfig(8)
	cfg2.NewTracker = func(int) proto.Tracker { return core.NewInLLC(true) }
	m2 := runApp(t, cfg2, "barnes", 3000)
	if m2.LengthenedCode+m2.LengthenedData != 0 {
		t.Fatalf("tag-extended variant lengthened %d accesses", m2.LengthenedCode+m2.LengthenedData)
	}
}

// The tiny directory must capture most of the lengthened accesses the
// plain in-LLC scheme suffers.
func TestTinyReducesLengthenedAccesses(t *testing.T) {
	base := TestConfig(8)
	base.NewTracker = func(int) proto.Tracker { return core.NewInLLC(false) }
	mi := runApp(t, base, "barnes", 3000)

	tc := TestConfig(8)
	tc.NewTracker = func(int) proto.Tracker {
		return core.NewTiny(core.TinyConfig{Entries: 16, GNRU: true})
	}
	mt := runApp(t, tc, "barnes", 3000)
	if mt.Tracker["tiny.allocs"] == 0 || mt.Tracker["tiny.hits"] == 0 {
		t.Fatalf("tiny directory unused: %v", mt.Tracker)
	}
	li, lt := mi.LengthenedFrac(), mt.LengthenedFrac()
	if lt >= li {
		t.Fatalf("tiny directory did not reduce lengthened accesses: inllc %.3f vs tiny %.3f", li, lt)
	}
}

// Spilling must further reduce lengthened accesses when the tiny
// directory is very small.
func TestSpillingHelps(t *testing.T) {
	run := func(spill bool) Metrics {
		cfg := TestConfig(8)
		cfg.NewTracker = func(int) proto.Tracker {
			return core.NewTiny(core.TinyConfig{Entries: 2, GNRU: true, Spill: spill, WindowAccesses: 128})
		}
		sys := New(cfg, testTraces(8, 4000, "barnes"))
		return sys.Run(400_000_000)
	}
	no := run(false)
	yes := run(true)
	if yes.Tracker["tiny.spills"] == 0 {
		t.Fatal("no spills happened")
	}
	if yes.LengthenedFrac() >= no.LengthenedFrac() {
		t.Fatalf("spilling did not reduce lengthened accesses: %.3f vs %.3f",
			yes.LengthenedFrac(), no.LengthenedFrac())
	}
}

// Stash must trigger broadcasts under directory pressure, and its
// untracked private blocks make the checker's strict mode inapplicable.
func TestStashBroadcasts(t *testing.T) {
	cfg := TestConfig(8)
	cfg.NewTracker = func(int) proto.Tracker { return dir.NewStash(cfg.DirEntriesPerSlice(1.0 / 32)) }
	sys := New(cfg, testTraces(8, 4000, "TPC-C"))
	m := sys.Run(400_000_000)
	if m.Broadcasts == 0 {
		t.Fatal("stash directory never broadcast")
	}
	if bad := sys.CheckCoherence(false); len(bad) > 0 {
		t.Fatalf("stash coherence violations: %v", bad[:min(len(bad), 5)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEndStateChecksNeedALiveMachine: the end-state checks read the
// private caches. On a finished but unreleased machine they see its lines
// (a planted ownership mismatch is reported); once ReleaseStorage has
// handed the storage to the next run, they, DumpStall and Save panic instead of
// passing over emptied (or reused) caches.
func TestEndStateChecksNeedALiveMachine(t *testing.T) {
	cfg := sparseCfg(8, 2.0)
	sys := New(cfg, testTraces(8, 500, "barnes"))
	sys.Run(200_000_000)
	if bad := sys.CheckCoherence(false); len(bad) > 0 {
		t.Fatalf("clean run reports violations: %v", bad)
	}
	var planted *cacheLine
	for i := range sys.cores {
		c := &sys.cores[i]
		c.l2.ForEach(func(l *cacheLine) {
			if planted == nil {
				planted = l
			}
		})
	}
	if planted == nil {
		t.Fatal("finished machine holds no private L2 lines")
	}
	if planted.Meta.st == psS {
		planted.Meta.st = psM
	} else {
		planted.Meta.st = psS
	}
	if bad := sys.CheckCoherence(false); len(bad) == 0 {
		t.Fatal("CheckCoherence missed a planted ownership mismatch")
	}
	sys.ReleaseStorage()
	for name, fn := range map[string]func(){
		"CheckCoherence":    func() { sys.CheckCoherence(false) },
		"CheckExactSharers": func() { sys.CheckExactSharers() },
		"DumpStall":         func() { sys.DumpStall() },
		"ReleaseStorage":    func() { sys.ReleaseStorage() },
		"Save":              func() { sys.Save(io.Discard) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released System did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestReleaseMidRun: a machine released with transactions, eviction
// notices and DRAM requests still in flight (a run cut at its event cap)
// leaves none of them to the next machine built on its storage, which
// must run exactly like one built before it.
func TestReleaseMidRun(t *testing.T) {
	cfg := sparseCfg(8, 0.5)
	traces := testTraces(8, 2000, "barnes")
	// A stale busy block NACKs its requesters forever, so runs are capped.
	const maxEvents = 10_000_000
	want := New(cfg, traces).Run(maxEvents)

	cut := New(cfg, traces)
	cut.Start()
	inFlight := func() (busy, evicting, queued bool) {
		for i := range cut.banks {
			busy = busy || cut.banks[i].busy.Len() > 0
		}
		for i := range cut.cores {
			evicting = evicting || cut.cores[i].evictBuf.Len() > 0
		}
		for _, ch := range cut.mem.SaveState().Channels {
			queued = queued || len(ch.Pending) > 0
		}
		return
	}
	for {
		if cut.RunEvents(50) == 0 {
			t.Fatal("run drained before busy blocks, eviction notices and DRAM requests were in flight together")
		}
		if busy, evicting, queued := inFlight(); busy && evicting && queued {
			break
		}
	}
	cut.ReleaseStorage()

	if got := New(cfg, traces).Run(maxEvents); !reflect.DeepEqual(got, want) {
		t.Fatalf("machine built on a mid-run release differs:\n got %+v\nwant %+v", got, want)
	}
}
