package system

import (
	"fmt"
	"math/rand"
	"testing"

	"tinydir/internal/core"
	"tinydir/internal/dir"
	"tinydir/internal/proto"
	"tinydir/internal/trace"
)

// randomTraces builds adversarial traces: a small hot block set hammered
// by every core with a high store fraction, maximizing upgrade races,
// invalidation storms, eviction races and NACK pressure.
func randomTraces(seed int64, cores, refs, blocks int, storeFrac float64) [][]trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]trace.Ref, cores)
	for c := 0; c < cores; c++ {
		refs := make([]trace.Ref, refs)
		for i := range refs {
			kind := trace.Load
			switch {
			case rng.Float64() < storeFrac:
				kind = trace.Store
			case rng.Float64() < 0.1:
				kind = trace.Ifetch
			}
			refs[i] = trace.Ref{
				Addr: uint64(rng.Intn(blocks)) * 977, // spread across banks/sets
				Kind: kind,
				Gap:  uint8(rng.Intn(4)),
			}
		}
		out[c] = refs
	}
	return out
}

// TestProtocolStress hammers every scheme with contended random traffic
// and verifies full coherence at quiescence. This is the main
// race-hunting test: small caches and tiny directories maximize
// evictions, back-invalidations, spills and forwarding races.
func TestProtocolStress(t *testing.T) {
	schemes := []struct {
		name string
		mk   func(cfg Config) func(int) proto.Tracker
	}{
		{"sparse-tiny", func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSparse(4) }
		}},
		{"sharedonly", func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewSharedOnly(4, false) }
		}},
		{"stash", func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewStash(4) }
		}},
		{"mgd", func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return dir.NewMgD(4) }
		}},
		{"inllc", func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker { return core.NewInLLC(false) }
		}},
		{"tiny-full", func(cfg Config) func(int) proto.Tracker {
			return func(int) proto.Tracker {
				return core.NewTiny(core.TinyConfig{Entries: 2, GNRU: true, Spill: true, WindowAccesses: 128})
			}
		}},
	}
	for _, sch := range schemes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sch.name, seed), func(t *testing.T) {
				cfg := TestConfig(8)
				// Extra-small private caches: more eviction traffic.
				cfg.L1Sets, cfg.L1Ways = 4, 2
				cfg.L2Sets, cfg.L2Ways = 8, 2
				cfg.NewTracker = sch.mk(cfg)
				sys := New(cfg, randomTraces(seed, 8, 1200, 96, 0.35))
				m := sys.Run(500_000_000)
				if m.Cycles == 0 {
					t.Fatal("no progress")
				}
				if bad := sys.CheckCoherence(false); len(bad) > 0 {
					n := len(bad)
					if n > 5 {
						n = 5
					}
					t.Fatalf("%d violations: %v", len(bad), bad[:n])
				}
			})
		}
	}
}

// TestTrafficClassesPopulated checks the Fig. 5 accounting: all three
// classes see traffic, and eviction notices dominate the writeback class.
func TestTrafficClassesPopulated(t *testing.T) {
	cfg := TestConfig(8)
	cfg.NewTracker = func(int) proto.Tracker { return dir.NewSparse(cfg.DirEntriesPerSlice(2)) }
	sys := New(cfg, testTraces(8, 3000, "TPC-C"))
	m := sys.Run(400_000_000)
	for i, name := range []string{"processor", "writeback", "coherence"} {
		if m.TrafficBytes[i] == 0 {
			t.Errorf("no %s traffic", name)
		}
	}
	if m.TrafficBytes[0] < m.TrafficBytes[2] {
		t.Error("coherence traffic exceeds processor traffic in the 2x baseline")
	}
}

// TestSharerBinsRecorded checks the Fig. 2 census: a sharing-heavy app
// must populate multiple sharer bins and a private app almost none.
func TestSharerBinsRecorded(t *testing.T) {
	run := func(app string) Metrics {
		cfg := TestConfig(8)
		cfg.NewTracker = func(int) proto.Tracker { return dir.NewSparse(cfg.DirEntriesPerSlice(2)) }
		sys := New(cfg, testTraces(8, 3000, app))
		return sys.Run(400_000_000)
	}
	b := run("barnes")
	sharedBlocks := b.SharerBins[0] + b.SharerBins[1] + b.SharerBins[2] + b.SharerBins[3]
	if sharedBlocks == 0 {
		t.Fatal("barnes recorded no shared blocks")
	}
	if b.SharerBins[1]+b.SharerBins[2]+b.SharerBins[3] == 0 {
		t.Fatal("barnes recorded no blocks with 5+ sharers")
	}
	c := run("compress")
	cShared := float64(c.SharerBins[0]+c.SharerBins[1]+c.SharerBins[2]+c.SharerBins[3]) / float64(c.AllocatedBlocks)
	bShared := float64(sharedBlocks) / float64(b.AllocatedBlocks)
	if cShared >= bShared {
		t.Fatalf("compress (%f) should share less than barnes (%f)", cShared, bShared)
	}
}

// TestNackRetryUnderContention: hammering one block from all cores must
// produce NACKs (busy blocks) and still complete coherently.
func TestNackRetryUnderContention(t *testing.T) {
	cfg := TestConfig(8)
	cfg.NewTracker = func(int) proto.Tracker { return dir.NewSparse(cfg.DirEntriesPerSlice(2)) }
	traces := make([][]trace.Ref, 8)
	for c := 0; c < 8; c++ {
		refs := make([]trace.Ref, 400)
		for i := range refs {
			kind := trace.Load
			if (i+c)%3 == 0 {
				kind = trace.Store
			}
			refs[i] = trace.Ref{Addr: uint64(i % 4), Kind: kind, Gap: 1}
		}
		traces[c] = refs
	}
	sys := New(cfg, traces)
	m := sys.Run(500_000_000)
	if m.Nacks == 0 {
		t.Fatal("no NACKs under single-block contention")
	}
	if bad := sys.CheckCoherence(false); len(bad) > 0 {
		t.Fatalf("violations: %v", bad[0])
	}
}

// Regression: MgD regions must be bank-local. With regions spanning home
// banks, one bank's region eviction back-invalidated blocks homed at
// other banks, leaving stale exclusive entries behind and livelocking
// forward-miss restarts (found on bodytrack at 32 cores). This test runs
// the triggering workload shape at 16 cores with realistic (larger)
// caches and verifies completion and coherence.
func TestMgDRegionBankLocality(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.L1Sets, cfg.L2Sets, cfg.LLCSets = 32, 64, 64
	cfg.NewTracker = func(int) proto.Tracker { return dir.NewMgD(cfg.DirEntriesPerSlice(1.0 / 8)) }
	sys := New(cfg, testTraces(16, 2500, "bodytrack"))
	m := sys.Run(300_000_000)
	if m.Cycles == 0 {
		t.Fatal("no progress")
	}
	if bad := sys.CheckCoherence(false); len(bad) > 0 {
		t.Fatalf("%d violations, first %v", len(bad), bad[0])
	}
}
