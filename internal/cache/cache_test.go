package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLookupInsert(t *testing.T) {
	c := New[int](4, 2, LRU)
	if c.Lookup(12) != nil {
		t.Fatal("hit in empty cache")
	}
	l, _, had := c.Insert(12)
	if had {
		t.Fatal("eviction from empty set")
	}
	l.Meta = 7
	got := c.Lookup(12)
	if got == nil || got.Meta != 7 {
		t.Fatal("lost inserted line/meta")
	}
	// Same set: 12 % 4 == 0; addresses 0,4,8 share set 0.
	c.Insert(4)
	_, ev, had := c.Insert(8) // evicts LRU == 12
	if !had || ev.Addr != 12 || ev.Meta != 7 {
		t.Fatalf("evicted %+v (had=%v), want addr 12 meta 7", ev, had)
	}
	if c.Lookup(12) != nil {
		t.Fatal("evicted line still present")
	}
}

func TestInsertExistingTouches(t *testing.T) {
	c := New[int](1, 2, LRU)
	c.Insert(0)
	c.Insert(1)
	// Re-insert 0: becomes MRU; next insert must evict 1.
	l, _, had := c.Insert(0)
	if had || l.Addr != 0 {
		t.Fatal("re-insert should hit")
	}
	_, ev, _ := c.Insert(2)
	if ev.Addr != 1 {
		t.Fatalf("evicted %d, want 1", ev.Addr)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New[int](1, 4, LRU)
	for a := uint64(0); a < 4; a++ {
		c.Insert(a)
	}
	c.Touch(c.Lookup(0)) // 0 becomes MRU; LRU is now 1
	_, ev, _ := c.Insert(10)
	if ev.Addr != 1 {
		t.Fatalf("evicted %d, want 1", ev.Addr)
	}
}

func TestNRU(t *testing.T) {
	c := New[int](1, 4, NRU)
	for a := uint64(0); a < 4; a++ {
		c.Insert(a)
	}
	// All ref bits set: first victim pass gang-clears, then lowest way (0).
	v := c.Victim(99)
	if v.Addr != 0 {
		t.Fatalf("NRU victim addr %d, want 0", v.Addr)
	}
	// After gang-clear, touching way holding addr 2 protects it.
	c.Touch(c.Lookup(2))
	_, ev, _ := c.Insert(99) // victim = lowest unreferenced way = 0
	if ev.Addr != 0 {
		t.Fatalf("evicted %d, want 0", ev.Addr)
	}
	_, ev, _ = c.Insert(100) // next unreferenced: 1
	if ev.Addr != 1 {
		t.Fatalf("evicted %d, want 1", ev.Addr)
	}
}

func TestVictimWhere(t *testing.T) {
	c := New[int](1, 2, LRU)
	c.Insert(0)
	c.Insert(1)
	v := c.VictimWhere(9, func(l *Line[int]) bool { return l.Addr == 0 })
	if v == nil || v.Addr != 1 {
		t.Fatal("filter not honored")
	}
	if c.VictimWhere(9, func(l *Line[int]) bool { return true }) != nil {
		t.Fatal("all-skipped should return nil")
	}
	l, _, _ := c.InsertWhere(9, func(l *Line[int]) bool { return true })
	if l != nil {
		t.Fatal("InsertWhere with all-skipped should fail")
	}
}

func TestInvalidate(t *testing.T) {
	c := New[string](2, 2, LRU)
	l, _, _ := c.Insert(6)
	l.Meta = "x"
	old, ok := c.Invalidate(6)
	if !ok || old.Meta != "x" {
		t.Fatal("Invalidate lost state")
	}
	if _, ok := c.Invalidate(6); ok {
		t.Fatal("double invalidate")
	}
	if countValid(c.lines) != 0 {
		t.Fatal("valid lines after invalidate")
	}
	// Invalid way is preferred by the next insert in that set.
	c.Insert(2) // set 0
	if c.SetIndex(6) != c.SetIndex(2) {
		t.Skip("geometry assumption")
	}
}

// Property: cache never holds more than `ways` lines of one set, a line is
// found iff it is among the last `ways` distinct inserted addresses of its
// set (true LRU), and the number of valid lines matches a model.
func TestLRUModelProperty(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sets, ways := 1+rng.Intn(4), 1+rng.Intn(4)
		c := New[struct{}](sets, ways, LRU)
		// model: per set, slice of addrs in MRU..LRU order
		model := make([][]uint64, sets)
		ops := int(opsRaw)
		for i := 0; i < ops; i++ {
			addr := uint64(rng.Intn(40))
			s := int(addr % uint64(sets))
			switch rng.Intn(4) {
			case 0, 1: // insert
				c.Insert(addr)
				ms := model[s]
				for j, a := range ms {
					if a == addr {
						ms = append(ms[:j], ms[j+1:]...)
						break
					}
				}
				ms = append([]uint64{addr}, ms...)
				if len(ms) > ways {
					ms = ms[:ways]
				}
				model[s] = ms
			case 2: // lookup+touch
				l := c.Lookup(addr)
				inModel := false
				for j, a := range model[s] {
					if a == addr {
						inModel = true
						c.Touch(l)
						ms := append(model[s][:j], model[s][j+1:]...)
						model[s] = append([]uint64{addr}, ms...)
						break
					}
				}
				if (l != nil) != inModel {
					return false
				}
			case 3: // invalidate
				_, ok := c.Invalidate(addr)
				inModel := false
				for j, a := range model[s] {
					if a == addr {
						inModel = true
						model[s] = append(model[s][:j], model[s][j+1:]...)
						break
					}
				}
				if ok != inModel {
					return false
				}
			}
		}
		total := 0
		for s := range model {
			total += len(model[s])
			for _, a := range model[s] {
				if c.Lookup(a) == nil {
					return false
				}
			}
		}
		return countValid(c.lines) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New[int](0, 4, LRU)
}

// countValid returns the number of valid lines in a cache's backing
// storage.
func countValid[T any](lines []Line[T]) int {
	n := 0
	for i := range lines {
		if lines[i].Valid {
			n++
		}
	}
	return n
}
