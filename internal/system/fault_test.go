package system

// Fault-injection protocol tests (DESIGN.md §10): the machinery added to
// survive mesh drops/duplicates/jitter, ECC-detected tracker corruption and
// DRAM aborts is exercised here against the golden reference machine, and
// the zero-rate path is pinned bit-identical to a bare run.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tinydir/internal/core"
	"tinydir/internal/dir"
	"tinydir/internal/fault"
	"tinydir/internal/obs"
	"tinydir/internal/proto"
)

// TestFaultRateZeroIdentity pins the no-fault contract: configuring the
// fault layer with every rate at zero yields exactly the Metrics of a run
// that never mentions faults — same event sequence, same cycle counts.
func TestFaultRateZeroIdentity(t *testing.T) {
	run := func(faults fault.Config) Metrics {
		cfg := TestConfig(16)
		cfg.NewTracker = func(int) proto.Tracker { return dir.NewSparse(8) }
		cfg.Faults = faults
		sys := New(cfg, testTraces(16, 1500, "barnes"))
		return sys.Run(200_000_000)
	}
	bare := run(fault.Config{})
	zero := run(fault.Uniform(12345, 0))
	if !reflect.DeepEqual(bare, zero) {
		t.Fatalf("zero-rate fault config perturbed the run:\nbare: %+v\nzero: %+v", bare, zero)
	}
}

// faultSchemes is the scheme subset the soak acceptance names: a full-map
// sparse directory, the paper's Tiny Directory, and the stash baseline.
func faultSchemes() map[string]func(int) proto.Tracker {
	return map[string]func(int) proto.Tracker{
		"sparse": func(int) proto.Tracker { return dir.NewSparse(8) },
		"tiny": func(int) proto.Tracker {
			return core.NewTiny(core.TinyConfig{Entries: 4, GNRU: true, Spill: true, WindowAccesses: 128})
		},
		"stash": func(int) proto.Tracker { return dir.NewStash(8) },
	}
}

// TestFaultInjectionInvariants replays contended traces under a moderate
// uniform fault rate for each scheme and asserts the full survival
// contract: the run drains, the golden machine sees zero violations, the
// end state is coherent, every core retires its complete trace (the same
// retire count as the fault-free run), and faults actually fired.
func TestFaultInjectionInvariants(t *testing.T) {
	seeds := []uint64{3, 17}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for name, mk := range faultSchemes() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				cores, refs := 16, 900
				cfg := TestConfig(cores)
				cfg.L1Sets, cfg.L1Ways = 4, 2
				cfg.L2Sets, cfg.L2Ways = 8, 2
				cfg.NewTracker = mk
				cfg.Faults = fault.Uniform(seed, 0.02)
				g := NewGoldenChecker()
				cfg.Checker = g
				sys := New(cfg, randomTraces(int64(seed), cores, refs, 12*cores, 0.3))
				sys.Run(2_000_000_000)
				if g.Retires() != uint64(cores*refs) {
					t.Fatalf("run did not drain: %d retirements, want %d\n%s",
						g.Retires(), cores*refs, sys.DumpStall())
				}
				if v := g.Violations(); len(v) > 0 {
					t.Fatalf("%d golden-machine violations under faults, first: %s", len(v), v[0])
				}
				if bad := sys.CheckCoherence(false); len(bad) > 0 {
					t.Fatalf("%d end-state violations, first: %s", len(bad), bad[0])
				}
				st := sys.FaultInjector().Stats
				if st.MeshDrops == 0 || st.MeshDups == 0 || st.MeshDelays == 0 {
					t.Fatalf("fault machinery not exercised: %+v", st)
				}
				if st.ReqTimeouts == 0 {
					t.Fatalf("no request timeouts despite drops: %+v", st)
				}
			})
		}
	}
}

// TestFaultCountersInMetrics checks that a faulted run surfaces the
// fault.* counters through Metrics.Tracker.
func TestFaultCountersInMetrics(t *testing.T) {
	cfg := TestConfig(16)
	cfg.NewTracker = func(int) proto.Tracker { return dir.NewSparse(8) }
	cfg.Faults = fault.Uniform(9, 0.02)
	sys := New(cfg, testTraces(16, 1200, "barnes"))
	m := sys.Run(2_000_000_000)
	for _, k := range []string{"fault.mesh_drops", "fault.mesh_dups", "fault.req_timeouts"} {
		if m.Tracker[k] == 0 {
			t.Fatalf("Metrics.Tracker[%q] = 0, want > 0 (have %v)", k, m.Tracker)
		}
	}
}

// TestWatchdogFiresOnDropBlackout injects a 20k-cycle window in which every
// droppable message is lost, with the PR 4 stall watchdog armed at a 5k
// window. Every core wedges inside the blackout, so the watchdog must fire
// exactly once, and its dump must show the stalled outstanding requests;
// the backoff retransmits then heal the run, which must drain completely.
func TestWatchdogFiresOnDropBlackout(t *testing.T) {
	cores, refs := 16, 600
	cfg := TestConfig(cores)
	cfg.NewTracker = func(int) proto.Tracker { return dir.NewSparse(8) }
	cfg.Faults = fault.Config{
		Seed:          1,
		BlackoutFrom:  2_000,
		BlackoutUntil: 22_000,
		// Short retransmit timeouts: recovery after the blackout is then
		// prompt everywhere, so the blackout is the only stall episode.
		ReqTimeout:   2_000,
		EvictTimeout: 2_000,
	}
	var dump bytes.Buffer
	rec := obs.NewRecorder(obs.Config{WatchdogWindow: 5_000, StallOut: &dump})
	cfg.Recorder = rec
	g := NewGoldenChecker()
	cfg.Checker = g
	sys := New(cfg, randomTraces(42, cores, refs, 12*cores, 0.3))
	sys.Run(2_000_000_000)
	if g.Retires() != uint64(cores*refs) {
		t.Fatalf("run did not drain after blackout: %d retirements, want %d\n%s",
			g.Retires(), cores*refs, sys.DumpStall())
	}
	if rec.Watchdog.Fired != 1 {
		t.Fatalf("watchdog fired %d times, want exactly 1\n%s", rec.Watchdog.Fired, dump.String())
	}
	out := dump.String()
	if !strings.Contains(out, "watchdog: no retirement") {
		t.Fatalf("dump missing watchdog header:\n%s", out)
	}
	if !strings.Contains(out, "out{addr") {
		t.Fatalf("dump shows no stalled outstanding request:\n%s", out)
	}
	if v := g.Violations(); len(v) > 0 {
		t.Fatalf("violation after blackout recovery: %s", v[0])
	}
}

// TestECCRecoveryPreservesCoherence forces a high ECC detection rate with
// no mesh faults, so every recovery (invalidate-and-refetch broadcast)
// happens on an otherwise clean network, and checks the golden machine
// stays silent through the refetch storms.
func TestECCRecoveryPreservesCoherence(t *testing.T) {
	cores, refs := 16, 900
	cfg := TestConfig(cores)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.L2Sets, cfg.L2Ways = 8, 2
	cfg.NewTracker = func(int) proto.Tracker { return dir.NewSparse(8) }
	cfg.Faults = fault.Config{Seed: 5, ECC: 0.02}
	g := NewGoldenChecker()
	cfg.Checker = g
	sys := New(cfg, randomTraces(7, cores, refs, 12*cores, 0.3))
	sys.Run(2_000_000_000)
	if g.Retires() != uint64(cores*refs) {
		t.Fatalf("run did not drain: %d retirements, want %d\n%s",
			g.Retires(), cores*refs, sys.DumpStall())
	}
	if v := g.Violations(); len(v) > 0 {
		t.Fatalf("golden-machine violation through ECC recovery: %s", v[0])
	}
	st := sys.FaultInjector().Stats
	if st.ECCDetected == 0 {
		t.Fatal("no ECC detections at rate 0.02: injection path dead")
	}
	if bad := sys.CheckCoherence(false); len(bad) > 0 {
		t.Fatalf("end-state violation after ECC recovery: %s", bad[0])
	}
}
