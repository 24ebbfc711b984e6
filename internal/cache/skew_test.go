package cache

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSkewedBasic(t *testing.T) {
	c := NewSkewed[int](16, 4, 1)
	if len(c.lines) != 64 {
		t.Fatalf("capacity %d", len(c.lines))
	}
	l, _, had := c.Insert(1234)
	if had || l == nil {
		t.Fatal("insert into empty skewed cache")
	}
	l.Meta = 9
	if g := c.Lookup(1234); g == nil || g.Meta != 9 {
		t.Fatal("lookup after insert failed")
	}
	old, ok := c.Invalidate(1234)
	if !ok || old.Meta != 9 {
		t.Fatal("invalidate failed")
	}
	if c.Lookup(1234) != nil {
		t.Fatal("stale after invalidate")
	}
}

func TestSkewedEvictionKeepsCapacity(t *testing.T) {
	c := NewSkewed[struct{}](8, 4, 7)
	present := map[uint64]bool{}
	for a := uint64(0); a < 500; a++ {
		_, ev, had := c.Insert(a)
		present[a] = true
		if had {
			delete(present, ev.Addr)
		}
		if countValid(c.lines) > len(c.lines) {
			t.Fatal("over capacity")
		}
	}
	if n := countValid(c.lines); n != len(present) {
		t.Fatalf("valid %d, model %d", n, len(present))
	}
	for a := range present {
		if c.Lookup(a) == nil {
			t.Fatalf("model block %d missing", a)
		}
	}
}

func TestSkewedPowerOfTwoPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	NewSkewed[int](12, 4, 1)
}

// H3 hashes should spread sequential addresses nearly uniformly: the
// chi-square statistic over set occupancy must stay far from a degenerate
// (single-set) distribution.
func TestH3Uniformity(t *testing.T) {
	const sets = 64
	h := newH3(99, 6)
	counts := make([]float64, sets)
	const n = 64 * 256
	for a := uint64(0); a < n; a++ {
		counts[h.hash(a*64)]++ // block-aligned addresses
	}
	expect := float64(n) / sets
	chi2 := 0.0
	for _, c := range counts {
		d := c - expect
		chi2 += d * d / expect
	}
	// 63 degrees of freedom; mean 63, std ~11.2. Allow a wide margin.
	if chi2 > 150 {
		t.Fatalf("chi2 = %.1f, hash badly non-uniform", chi2)
	}
	if math.IsNaN(chi2) {
		t.Fatal("chi2 NaN")
	}
}

// Property: skewed cache behaves as exact-membership over the last inserts
// per candidate slots — specifically, a looked-up address always has a
// line whose Addr matches, and insert-then-lookup always hits.
func TestSkewedInsertLookupProperty(t *testing.T) {
	c := NewSkewed[struct{}](32, 4, 3)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Insert(uint64(a))
			if got := c.Lookup(uint64(a)); got == nil || got.Addr != uint64(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A skewed array should suffer fewer conflicts than a direct-mapped-ish
// set-associative array under a pathological stride that maps to one set.
func TestSkewedBeatsSetAssocOnStride(t *testing.T) {
	sets, ways := 64, 4
	sa := New[struct{}](sets, ways, LRU)
	sk := NewSkewed[struct{}](sets, ways, 5)
	saEv, skEv := 0, 0
	// Stride of exactly `sets`: every address lands in set 0 of the
	// set-associative array.
	for i := 0; i < 64; i++ {
		addr := uint64(i * sets)
		if _, _, had := sa.Insert(addr); had {
			saEv++
		}
		if _, _, had := sk.Insert(addr); had {
			skEv++
		}
	}
	if skEv >= saEv {
		t.Fatalf("skewed evictions %d not fewer than set-assoc %d", skEv, saEv)
	}
}
