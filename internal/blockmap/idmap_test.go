package blockmap

import (
	"math/rand"
	"testing"
)

// TestIDMapBasics exercises the full Put/Get/Has/Delete surface including
// id 0, overwrite, and delete of the most recent / a middle entry.
func TestIDMapBasics(t *testing.T) {
	var m IDMap[string]
	if m.Len() != 0 || m.Has(0) {
		t.Fatal("zero map not empty")
	}
	m.Put(0, "a")
	m.Put(7, "b")
	m.Put(3, "c")
	m.Put(7, "b2") // overwrite
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if v, ok := m.Get(7); !ok || v != "b2" {
		t.Fatalf("Get(7) = %q,%v", v, ok)
	}
	m.Delete(7)
	if m.Has(7) || m.Len() != 2 {
		t.Fatal("Delete(7) did not remove the entry")
	}
	m.Delete(7) // absent: no-op
	if v, ok := m.Get(0); !ok || v != "a" {
		t.Fatalf("Get(0) after deletes = %q,%v", v, ok)
	}
	if v, ok := m.Get(3); !ok || v != "c" {
		t.Fatalf("Get(3) after deletes = %q,%v", v, ok)
	}
	if _, ok := m.Get(1000); ok {
		t.Fatal("Get far beyond the sparse array succeeded")
	}
}

// TestIDMapAgainstModel drives random operations against a builtin map
// and checks full agreement, including ForEach coverage.
func TestIDMapAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var m IDMap[int]
	model := map[int32]int{}
	for op := 0; op < 20000; op++ {
		id := int32(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			v := rng.Int()
			m.Put(id, v)
			model[id] = v
		case 1:
			m.Delete(id)
			delete(model, id)
		case 2:
			got, ok := m.Get(id)
			want, wok := model[id]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", op, id, got, ok, want, wok)
			}
		}
		if m.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(model))
		}
	}
	seen := map[int32]int{}
	m.ForEach(func(id int32, v int) { seen[id] = v })
	if len(seen) != len(model) {
		t.Fatalf("ForEach visited %d entries, want %d", len(seen), len(model))
	}
	for id, v := range model {
		if seen[id] != v {
			t.Fatalf("ForEach saw %d for id %d, want %d", seen[id], id, v)
		}
	}
}

// TestIDMapResetLeavesNoStaleIDs: Reset on a map with live entries leaves
// none behind — no id is present, re-inserted ids see no old value, and
// the entry list holds only the new entries.
func TestIDMapResetLeavesNoStaleIDs(t *testing.T) {
	var m IDMap[*int]
	vals := make([]int, 50)
	for id := range vals {
		m.Put(int32(id*2), &vals[id])
	}
	m.Delete(10)
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", m.Len())
	}
	for id := int32(0); id < 120; id++ {
		if m.Has(id) {
			t.Fatalf("id %d still present after Reset", id)
		}
	}
	for _, v := range m.vals[:cap(m.vals)] {
		if v != nil {
			t.Fatal("Reset left a value reachable from the entry list")
		}
	}
	x := 7
	m.Put(4, &x)
	m.Put(99, &x)
	if m.Len() != 2 {
		t.Fatalf("Len after re-insert = %d, want 2", m.Len())
	}
	seen := 0
	m.ForEach(func(id int32, v *int) {
		if (id != 4 && id != 99) || v != &x {
			t.Fatalf("stale entry %d after Reset", id)
		}
		seen++
	})
	if seen != 2 {
		t.Fatalf("ForEach visited %d entries, want 2", seen)
	}
}
