package system

// The protocol invariant checker promised by DESIGN.md §7: random stress
// traces are replayed against the golden per-block reference state machine
// (GoldenChecker, golden.go) that follows every retirement and
// invalidation in event order, then the end state is cross-checked
// (exact sharer sets at quiescence: full-map schemes track no phantom
// sharers, and no actual holder goes untracked).

import (
	"fmt"
	"testing"

	"tinydir/internal/core"
	"tinydir/internal/dir"
	"tinydir/internal/proto"
)

// invariantSchemes builds every tracker organization under test, sized
// small so directory pressure, spills and back-invalidations all occur.
func invariantSchemes() []struct {
	name    string
	fullMap bool // lossless sharer encoding: exact-sharer check applies
	mk      func(cfg Config) func(int) proto.Tracker
} {
	return []struct {
		name    string
		fullMap bool
		mk      func(cfg Config) func(int) proto.Tracker
	}{
		{"sparse", true, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSparse(8) }
		}},
		{"sparse-ptr2", false, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSparseWithFormat(8, dir.LimitedPtr{K: 2}) }
		}},
		{"sharedonly", true, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSharedOnly(8, false) }
		}},
		{"sharedonly-skew", true, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSharedOnly(8, true) }
		}},
		{"mgd", false, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewMgD(8) }
		}},
		{"stash", false, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewStash(8) }
		}},
		{"inllc", true, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return core.NewInLLC(false) }
		}},
		{"inllc-tagext", true, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return core.NewInLLC(true) }
		}},
		{"tiny-full", true, func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker {
				return core.NewTiny(core.TinyConfig{Entries: 4, GNRU: true, Spill: true, WindowAccesses: 128})
			}
		}},
	}
}

// TestProtocolInvariants replays contended random traces for every
// tracker scheme at 16 and 32 cores under the golden reference machine,
// then cross-checks the end state.
func TestProtocolInvariants(t *testing.T) {
	coreCounts := []int{16, 32}
	seeds := []int64{11, 23}
	if testing.Short() {
		coreCounts = []int{16}
		seeds = seeds[:1]
	}
	for _, sch := range invariantSchemes() {
		for _, cores := range coreCounts {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/%dcores/seed%d", sch.name, cores, seed)
				t.Run(name, func(t *testing.T) {
					cfg := TestConfig(cores)
					cfg.L1Sets, cfg.L1Ways = 4, 2
					cfg.L2Sets, cfg.L2Ways = 8, 2
					cfg.NewTracker = sch.mk(cfg)
					g := NewGoldenChecker()
					cfg.Checker = g
					refs := 900
					blocks := 12 * cores // enough contention per bank
					sys := New(cfg, randomTraces(seed, cores, refs, blocks, 0.3))
					m := sys.Run(1_000_000_000)
					if m.Cycles == 0 {
						t.Fatal("no progress")
					}
					if g.retires != uint64(cores*refs) {
						t.Fatalf("golden machine saw %d retirements, want %d", g.retires, cores*refs)
					}
					if len(g.violations) > 0 {
						t.Fatalf("%d golden-machine violations, first: %s",
							len(g.violations), g.violations[0])
					}
					if bad := sys.CheckCoherence(false); len(bad) > 0 {
						t.Fatalf("%d end-state violations, first: %s", len(bad), bad[0])
					}
					if sch.fullMap {
						if bad := sys.CheckExactSharers(); len(bad) > 0 {
							t.Fatalf("%d phantom sharers, first: %s", len(bad), bad[0])
						}
					}
				})
			}
		}
	}
}

// threeHopShared wraps a tracker and forces every read of a Shared block
// onto the three-hop elected-sharer path (SupplyFromLLC=false), modeling
// the paper's §I-A composition of in-LLC state corruption with a lossy
// sharer format. Over a limited-pointer directory whose overflow inflates
// sharer sets, elections land on phantom sharers that hold no copy, so the
// forward comes back empty and the bank must restart the transaction
// (onFwdMiss) with the phantom excluded from re-election.
type threeHopShared struct{ proto.Tracker }

func (t threeHopShared) Begin(addr uint64, kind proto.ReqKind, llcHit bool) proto.View {
	v := t.Tracker.Begin(addr, kind, llcHit)
	if v.E.State == proto.Shared {
		v.SupplyFromLLC = false
	}
	return v
}

// TestPhantomSharerForwardMissRestart replays the contended stress traces
// against the lossy-format three-hop composition and checks that (a) the
// phantom-sharer restart path actually fires (FwdMisses accumulate), and
// (b) the protocol stays correct through every restart: no golden-machine
// violations, no end-state incoherence, every core retires its full trace
// (the fwdExcl shrink guarantees termination via the memory fallback).
func TestPhantomSharerForwardMissRestart(t *testing.T) {
	coreCounts := []int{16, 32}
	seeds := []int64{11, 23}
	if testing.Short() {
		coreCounts = []int{16}
		seeds = seeds[:1]
	}
	var fwdMisses uint64
	for _, cores := range coreCounts {
		for _, seed := range seeds {
			name := fmt.Sprintf("%dcores/seed%d", cores, seed)
			t.Run(name, func(t *testing.T) {
				cfg := TestConfig(cores)
				cfg.L1Sets, cfg.L1Ways = 4, 2
				cfg.L2Sets, cfg.L2Ways = 8, 2
				cfg.NewTracker = func(int) proto.Tracker {
					return threeHopShared{dir.NewSparseWithFormat(8, dir.LimitedPtr{K: 2})}
				}
				g := NewGoldenChecker()
				g.AllowUncorruptedLengthened = true
				cfg.Checker = g
				refs := 900
				blocks := 12 * cores
				sys := New(cfg, randomTraces(seed, cores, refs, blocks, 0.3))
				m := sys.Run(1_000_000_000)
				if g.retires != uint64(cores*refs) {
					t.Fatalf("golden machine saw %d retirements, want %d", g.retires, cores*refs)
				}
				if len(g.violations) > 0 {
					t.Fatalf("%d golden-machine violations, first: %s",
						len(g.violations), g.violations[0])
				}
				if bad := sys.CheckCoherence(false); len(bad) > 0 {
					t.Fatalf("%d end-state violations, first: %s", len(bad), bad[0])
				}
				fwdMisses += m.FwdMisses
			})
		}
	}
	if fwdMisses == 0 {
		t.Fatal("no forward misses across the replay: phantom restart path not exercised")
	}
}

// TestLengthenedAccountingIsCorruptedOnly drives the in-LLC and tiny
// schemes with sharing-heavy synthetic apps and asserts that (a) some
// lengthened accesses occur, so the invariant is exercised, and (b)
// every one of them was charged to a genuinely corrupted-shared line.
func TestLengthenedAccountingIsCorruptedOnly(t *testing.T) {
	mks := map[string]func(int) proto.Tracker{
		"inllc": func(int) proto.Tracker { return core.NewInLLC(false) },
		"tiny": func(int) proto.Tracker {
			return core.NewTiny(core.TinyConfig{Entries: 4, GNRU: true, Spill: true, WindowAccesses: 128})
		},
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			cfg := TestConfig(16)
			cfg.NewTracker = mk
			g := NewGoldenChecker()
			cfg.Checker = g
			sys := New(cfg, testTraces(16, 2500, "barnes"))
			m := sys.Run(1_000_000_000)
			if m.LengthenedCode+m.LengthenedData == 0 {
				t.Fatal("no lengthened accesses: invariant not exercised")
			}
			if g.lengthened != m.LengthenedCode+m.LengthenedData {
				t.Fatalf("observer saw %d lengthened accesses, metrics say %d",
					g.lengthened, m.LengthenedCode+m.LengthenedData)
			}
			if len(g.violations) > 0 {
				t.Fatalf("violation: %s", g.violations[0])
			}
		})
	}
}
