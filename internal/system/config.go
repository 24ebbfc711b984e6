// Package system wires the substrates into the full 128-core CMP of
// Table I: trace-driven cores with private L1I/L1D/L2 caches, a banked
// shared LLC with one coherence-tracking slice per bank, a 2D mesh, and
// DDR3 memory controllers — and runs the MESI protocol across them.
package system

import (
	"fmt"
	"math/bits"

	"tinydir/internal/bitvec"
	"tinydir/internal/fault"
	"tinydir/internal/obs"
	"tinydir/internal/proto"
	"tinydir/internal/sim"
)

// Config describes one simulated machine. Cores must be a power of two
// no larger than MaxCores (the mesh is Cores tiles, one LLC bank +
// tracker slice per tile).
type Config struct {
	Cores int

	// Private caches (sets x ways of 64 B blocks).
	L1Sets, L1Ways int
	L2Sets, L2Ways int
	// Shared LLC per bank.
	LLCSets, LLCWays int

	MemChannels int

	// Latencies in cycles (Table I).
	L1Lat, L2Lat sim.Time
	LLCTagLat    sim.Time
	LLCDataLat   sim.Time
	NackRetry    sim.Time

	// NewTracker builds the coherence-tracking slice for one bank.
	NewTracker func(bank int) proto.Tracker

	// Checker, when non-nil, follows every retirement, invalidation and
	// lengthened access in event order (the golden reference machine of
	// DESIGN.md §7). A nil checker costs one predictable branch per event.
	Checker *GoldenChecker

	// Recorder, when non-nil, attaches the time-resolved observability
	// layer (epoch sampling, latency histograms, trace export, stall
	// watchdog). Like Checker it is pure observation: metrics and event
	// order are identical with or without it.
	Recorder *obs.Recorder

	// Faults configures the deterministic fault-injection layer (see
	// DESIGN.md §10). The zero value injects nothing and leaves the
	// fault-free machine bit-identical — the injector is nil-checked on
	// every edge, like Checker and Recorder.
	Faults fault.Config

	// TraceStats carries workload-level measurements made on the driving
	// trace (the generator families' trace.* counters, or the stats block
	// of a trace file). They are merged verbatim into Metrics.Tracker at
	// collection, so figure math and stored results see trace ground
	// truth beside the machine counters. Nil leaves Metrics unchanged.
	TraceStats map[string]uint64
}

// DefaultConfig returns the Table I machine scaled to the given core
// count: 32 KB 8-way L1s, 128 KB 8-way L2, and an LLC sized so its block
// count equals the entry count of a 2x sparse directory (2 x aggregate
// L2 blocks), i.e. 256 KB/bank at any scale.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:  cores,
		L1Sets: 64, L1Ways: 8, // 32 KB
		L2Sets: 256, L2Ways: 8, // 128 KB
		LLCSets: 256, LLCWays: 16, // 256 KB per bank
		MemChannels: 8,
		L1Lat:       2, L2Lat: 3,
		LLCTagLat: 4, LLCDataLat: 2,
		NackRetry: 25,
	}
}

// TestConfig returns a shrunken machine for unit tests: tiny caches so
// interesting evictions and directory pressure occur within short traces.
func TestConfig(cores int) Config {
	c := DefaultConfig(cores)
	c.L1Sets, c.L1Ways = 8, 4
	c.L2Sets, c.L2Ways = 16, 4
	c.LLCSets, c.LLCWays = 16, 8
	c.MemChannels = 2
	return c
}

// L2Blocks returns the per-core private L2 capacity in blocks; the
// paper's directory sizes are expressed relative to cores x L2Blocks.
func (c Config) L2Blocks() int { return c.L2Sets * c.L2Ways }

// DirEntriesPerSlice converts a paper-style directory size ratio (2.0 for
// 2x, 1.0/32 for 1/32x, ...) into entries per bank slice. With one bank
// per core this is ratio x L2Blocks, clamped to at least one entry.
func (c Config) DirEntriesPerSlice(ratio float64) int {
	n := int(ratio * float64(c.L2Blocks()))
	if n < 1 {
		n = 1
	}
	return n
}

// MaxCores is the largest machine the simulator builds: the paper's
// 128-core system, whose full-map sharer vector is one bitvec.Vec.
const MaxCores = bitvec.MaxBits

func (c Config) validate() error {
	if c.Cores < 2 || c.Cores&(c.Cores-1) != 0 {
		return fmt.Errorf("system: cores must be a power of two >= 2, got %d", c.Cores)
	}
	if c.Cores > MaxCores {
		return fmt.Errorf("system: %d cores exceed the %d-core limit of the full-map sharer vector", c.Cores, MaxCores)
	}
	if c.NewTracker == nil {
		return fmt.Errorf("system: NewTracker is required")
	}
	if c.MemChannels <= 0 || c.MemChannels > c.Cores {
		return fmt.Errorf("system: bad MemChannels %d", c.MemChannels)
	}
	return nil
}

// meshDims factors the tile count into the most square power-of-two grid
// (128 -> 16x8, matching Table I).
func meshDims(tiles int) (w, h int) {
	lg := bits.TrailingZeros(uint(tiles))
	w = 1 << ((lg + 1) / 2)
	h = tiles / w
	return
}

// bankShift is log2(banks): LLC banks and directory slices index their
// sets with the bank-selection bits stripped.
func (c Config) bankShift() uint { return uint(bits.TrailingZeros(uint(c.Cores))) }
