package system

// The golden reference machine promised by DESIGN.md §7: a checker that
// simulates every block's legal state alongside the real protocol. It is
// value-based — each block carries a version tag that every store bumps —
// so it catches lost invalidations and lost writes that aggregate metrics
// and end-state checks would hide:
//
//   - at most one exclusive (E/M) writer: a store retiring while any
//     other core's copy is live is a violation, as is an E/M grant;
//   - no lost writes: a private-cache hit must observe the current
//     version tag — a stale hit means an invalidation never arrived;
//   - every lengthened access really was corrupted-shared: the LLC line
//     charged with a three-hop critical path must actually hold its
//     coherence state in borrowed data bits.
//
// It lives in the library (not the test files) so the soak harness can
// attach it to fault-injected runs and assert the same invariants the
// unit tests check.

import (
	"fmt"

	"tinydir/internal/trace"
)

// goldenBlock is the reference state of one block: a version tag bumped
// by every store, and the version each core's live copy reflects.
type goldenBlock struct {
	version uint64
	seen    map[int]uint64
}

// GoldenChecker simulates every block's legal state alongside the real
// protocol. Attached through Config.Checker, its callbacks run on the
// simulation goroutine in deterministic event order.
type GoldenChecker struct {
	blocks     map[uint64]*goldenBlock
	violations []string

	retires    uint64
	lengthened uint64

	// AllowUncorruptedLengthened relaxes the corrupted-shared check for
	// runs that force the three-hop path on schemes whose LLC lines are
	// never corrupted (the phantom-sharer replay in the tests).
	AllowUncorruptedLengthened bool
}

// NewGoldenChecker returns an empty reference machine.
func NewGoldenChecker() *GoldenChecker {
	return &GoldenChecker{blocks: map[uint64]*goldenBlock{}}
}

// Violations returns the recorded invariant violations (capped at 20).
func (g *GoldenChecker) Violations() []string { return g.violations }

// Retires returns the number of retirements observed.
func (g *GoldenChecker) Retires() uint64 { return g.retires }

func (g *GoldenChecker) block(addr uint64) *goldenBlock {
	b := g.blocks[addr]
	if b == nil {
		b = &goldenBlock{seen: map[int]uint64{}}
		g.blocks[addr] = b
	}
	return b
}

func (g *GoldenChecker) failf(format string, args ...interface{}) {
	if len(g.violations) < 20 {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

// Retire is called when a core retires one trace reference. fill reports
// that the reference missed privately and was served by a protocol
// transaction; excl reports that the fill was granted in an exclusive
// (E/M) state. Hits have fill == false.
func (g *GoldenChecker) Retire(core int, addr uint64, kind trace.Kind, fill, excl bool) {
	g.retires++
	b := g.block(addr)
	switch {
	case kind == trace.Store:
		// The writer must be alone: every other live copy should have
		// been invalidated before the store completed.
		for c := range b.seen {
			if c != core {
				g.failf("store by core %d to %#x completed with a live copy at core %d", core, addr, c)
			}
		}
		b.version++
		b.seen = map[int]uint64{core: b.version}
	case fill:
		if excl {
			for c := range b.seen {
				if c != core {
					g.failf("exclusive grant of %#x to core %d with a live copy at core %d", addr, core, c)
				}
			}
		}
		b.seen[core] = b.version
	default:
		// Load/ifetch hit: the copy must exist and be current.
		v, ok := b.seen[core]
		switch {
		case !ok:
			g.failf("core %d hit on %#x without a live copy", core, addr)
		case v != b.version:
			g.failf("lost write: core %d read version %d of %#x, current is %d", core, v, addr, b.version)
		}
	}
}

// Invalidate is called when a core's private copy of addr is dropped for
// protocol reasons: an L2 capacity eviction, an invalidation, or an
// ownership-transferring forward.
func (g *GoldenChecker) Invalidate(core int, addr uint64) {
	delete(g.block(addr).seen, core)
}

// Lengthened is called when the home bank accounts an LLC access as
// critical-path lengthened; corrupted reports whether the LLC data line
// really was in the corrupted (state-in-data-bits) encoding that
// justifies the three-hop supply.
func (g *GoldenChecker) Lengthened(addr uint64, corrupted bool) {
	g.lengthened++
	if !corrupted && !g.AllowUncorruptedLengthened {
		g.failf("lengthened access charged to %#x but the LLC line is not corrupted-shared", addr)
	}
}
