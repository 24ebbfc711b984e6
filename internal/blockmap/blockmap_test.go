package blockmap

import (
	"math/rand"
	"testing"
)

func TestBasic(t *testing.T) {
	var m Map[int]
	if m.Len() != 0 || m.Has(0) {
		t.Fatal("zero value not empty")
	}
	m.Put(42, 1)
	m.Put(0, 2) // address 0 is a legal key
	m.Put(42, 3)
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(42); !ok || v != 3 {
		t.Fatalf("Get(42) = %d, %v", v, ok)
	}
	if v, ok := m.Get(0); !ok || v != 2 {
		t.Fatalf("Get(0) = %d, %v", v, ok)
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("Get(7) found a missing key")
	}
	m.Delete(42)
	m.Delete(42) // double delete is a no-op
	if m.Len() != 1 || m.Has(42) || !m.Has(0) {
		t.Fatalf("after delete: len=%d has42=%v has0=%v", m.Len(), m.Has(42), m.Has(0))
	}
}

// TestClusterDeletion forces colliding keys into one probe cluster and
// deletes from the middle, exercising the backward-shift path.
func TestClusterDeletion(t *testing.T) {
	var m Map[uint64]
	// Grow to a known size first so collisions are reproducible.
	for i := uint64(0); i < 100; i++ {
		m.Put(i, i)
	}
	for i := uint64(0); i < 100; i += 2 {
		m.Delete(i)
	}
	if m.Len() != 50 {
		t.Fatalf("len = %d, want 50", m.Len())
	}
	for i := uint64(0); i < 100; i++ {
		v, ok := m.Get(i)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
		if ok && v != i {
			t.Fatalf("Get(%d) = %d", i, v)
		}
	}
}

// TestAgainstBuiltinMap cross-checks a long random operation sequence
// against Go's map.
func TestAgainstBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map[int]
	ref := map[uint64]int{}
	// Small key space so puts, overwrites and deletes all collide often.
	for op := 0; op < 200000; op++ {
		addr := uint64(rng.Intn(64)) * 64 // block-aligned, like real addresses
		switch rng.Intn(3) {
		case 0:
			m.Put(addr, op)
			ref[addr] = op
		case 1:
			m.Delete(addr)
			delete(ref, addr)
		case 2:
			v, ok := m.Get(addr)
			rv, rok := ref[addr]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%#x) = %d,%v want %d,%v", op, addr, v, ok, rv, rok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: len %d != %d", op, m.Len(), len(ref))
		}
	}
	// Full content check via ForEach.
	seen := map[uint64]int{}
	m.ForEach(func(addr uint64, v int) { seen[addr] = v })
	if len(seen) != len(ref) {
		t.Fatalf("ForEach visited %d entries, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("ForEach saw %#x=%d, want %d", k, seen[k], v)
		}
	}
}

// TestMapResetLeavesNoStaleKeys: Reset on a grown table with live entries
// leaves none behind — no key is present, no value stays reachable, the
// storage is kept, and re-inserted keys see no old value.
func TestMapResetLeavesNoStaleKeys(t *testing.T) {
	var m Map[*int]
	vals := make([]int, 50)
	for i := range vals {
		m.Put(uint64(i)*128, &vals[i])
	}
	m.Delete(10 * 128)
	size := len(m.keys)
	m.Reset()
	if m.Len() != 0 || len(m.keys) != size {
		t.Fatalf("after Reset: Len %d, %d slots; want 0, %d", m.Len(), len(m.keys), size)
	}
	for i := range vals {
		if m.Has(uint64(i) * 128) {
			t.Fatalf("key %d still present after Reset", i*128)
		}
	}
	for i, v := range m.vals {
		if v != nil || m.keys[i] != 0 || m.used[i] {
			t.Fatalf("Reset left slot %d set", i)
		}
	}
	x := 7
	m.Put(4*128, &x)
	m.Put(99*128, &x)
	seen := 0
	m.ForEach(func(addr uint64, v *int) {
		if (addr != 4*128 && addr != 99*128) || v != &x {
			t.Fatalf("stale entry %#x after Reset", addr)
		}
		seen++
	})
	if seen != 2 || m.Len() != 2 {
		t.Fatalf("ForEach visited %d entries, Len %d; want 2, 2", seen, m.Len())
	}
}

func TestGrowth(t *testing.T) {
	var m Map[uint64]
	const n = 10000
	for i := uint64(0); i < n; i++ {
		m.Put(i*64, i)
	}
	if m.Len() != n {
		t.Fatalf("len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i * 64); !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v", i*64, v, ok)
		}
	}
}

func BenchmarkPutGetDelete(b *testing.B) {
	var m Map[int]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%13) * 64
		m.Put(addr, i)
		m.Get(addr)
		m.Delete(addr)
	}
}

func BenchmarkBuiltinPutGetDelete(b *testing.B) {
	m := map[uint64]int{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%13) * 64
		m[addr] = i
		_ = m[addr]
		delete(m, addr)
	}
}
