package intern

import (
	"math/rand"
	"testing"
)

// TestFirstTouchOrder: ids are assigned 0,1,2,... in first-touch order
// and repeated interning is stable.
func TestFirstTouchOrder(t *testing.T) {
	var tb Table
	addrs := []uint64{42, 0, 1 << 40, 42, 7, 0, 1 << 40}
	want := []int32{0, 1, 2, 0, 3, 1, 2}
	for i, a := range addrs {
		if id := tb.ID(a); id != want[i] {
			t.Fatalf("ID(%#x) = %d, want %d", a, id, want[i])
		}
	}
	if tb.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tb.Len())
	}
	for i, a := range addrs {
		if got := tb.Addr(tb.ID(a)); got != a {
			t.Fatalf("Addr(ID(%#x)) = %#x (case %d)", a, got, i)
		}
	}
}

// TestLookupDoesNotIntern: Lookup on an absent address reports absence
// and leaves the table unchanged; address zero is a legal key.
func TestLookupDoesNotIntern(t *testing.T) {
	var tb Table
	if _, ok := tb.Lookup(5); ok {
		t.Fatal("empty table claims to hold address 5")
	}
	tb.ID(0)
	if id, ok := tb.Lookup(0); !ok || id != 0 {
		t.Fatalf("Lookup(0) = %d,%v, want 0,true", id, ok)
	}
	if _, ok := tb.Lookup(5); ok {
		t.Fatal("table claims to hold an address that was never interned")
	}
	if tb.Len() != 1 {
		t.Fatalf("Lookup changed Len to %d", tb.Len())
	}
}

// TestGrowthKeepsIDs: interning enough addresses to force several table
// growths preserves every previously assigned id, including colliding
// and zero keys.
func TestGrowthKeepsIDs(t *testing.T) {
	var tb Table
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 5000)
	seen := map[uint64]int32{}
	for i := range addrs {
		a := rng.Uint64() >> uint(rng.Intn(50)) // cluster low addresses
		addrs[i] = a
		if _, dup := seen[a]; !dup {
			seen[a] = int32(len(seen))
		}
	}
	for _, a := range addrs {
		if id := tb.ID(a); id != seen[a] {
			t.Fatalf("ID(%#x) = %d, want %d", a, id, seen[a])
		}
	}
	if tb.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(seen))
	}
	for a, id := range seen {
		got, ok := tb.Lookup(a)
		if !ok || got != id {
			t.Fatalf("Lookup(%#x) = %d,%v, want %d,true", a, got, ok, id)
		}
		if tb.Addr(id) != a {
			t.Fatalf("Addr(%d) = %#x, want %#x", id, tb.Addr(id), a)
		}
	}
}

// TestResetRestartsIDs: after Reset, a table that had grown through
// several resizes answers like a fresh one — every Lookup misses, and ids
// restart at 0 in first-touch order.
func TestResetRestartsIDs(t *testing.T) {
	var tb Table
	for a := uint64(0); a < 1000; a++ {
		tb.ID(a * 3)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tb.Len())
	}
	for a := uint64(0); a < 1000; a++ {
		if id, ok := tb.Lookup(a * 3); ok {
			t.Fatalf("Lookup(%#x) after Reset = %d, want a miss", a*3, id)
		}
	}
	var fresh Table
	addrs := []uint64{2997, 42, 0, 1 << 40, 42, 3, 0}
	for _, a := range addrs {
		if got, want := tb.ID(a), fresh.ID(a); got != want {
			t.Fatalf("ID(%#x) after Reset = %d, a fresh table says %d", a, got, want)
		}
	}
	for id := int32(0); id < int32(fresh.Len()); id++ {
		if tb.Addr(id) != fresh.Addr(id) {
			t.Fatalf("Addr(%d) after Reset = %#x, a fresh table says %#x", id, tb.Addr(id), fresh.Addr(id))
		}
	}
}
