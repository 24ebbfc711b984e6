package dir

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tinydir/internal/bitvec"
	"tinydir/internal/proto"
	"tinydir/internal/trackertest"
)

func setOf(n int, ids ...int) bitvec.Vec {
	v := bitvec.New(n)
	for _, i := range ids {
		v.Set(i)
	}
	return v
}

func TestFullMapLossless(t *testing.T) {
	f := FullMap{}
	s := setOf(128, 0, 17, 63, 127)
	got := f.Decode(f.Encode(s), 128)
	if got != s {
		t.Fatalf("full map not lossless: %v -> %v", s, got)
	}
}

func TestLimitedPtrExactWithinBudget(t *testing.T) {
	f := LimitedPtr{K: 3}
	s := setOf(64, 5, 20, 40)
	got := f.Decode(f.Encode(s), 64)
	if got != s {
		t.Fatalf("within budget should be exact: %v -> %v", s, got)
	}
}

func TestLimitedPtrOverflowIsSuperset(t *testing.T) {
	f := LimitedPtr{K: 2, OverflowGroup: 4}
	s := setOf(32, 1, 2, 9, 30)
	got := f.Decode(f.Encode(s), 32)
	if got.Count() <= s.Count() {
		t.Fatalf("overflow should coarsen: %v -> %v", s, got)
	}
	s.ForEach(func(i int) {
		if !got.Test(i) {
			t.Fatalf("decode lost sharer %d", i)
		}
	})
}

func TestCoarseGrouping(t *testing.T) {
	f := Coarse{G: 8}
	s := setOf(64, 0, 9)
	got := f.Decode(f.Encode(s), 64)
	// Groups 0 and 1 fully set: 16 cores.
	if got.Count() != 16 {
		t.Fatalf("coarse decode count %d, want 16", got.Count())
	}
	// Empty set stays empty.
	if !f.Decode(f.Encode(bitvec.New(64)), 64).Empty() {
		t.Fatal("empty set inflated")
	}
}

// Property: for every format, Decode(Encode(s)) is a superset of s — the
// conservative-correctness requirement of write-invalidate protocols.
func TestFormatsSupersetProperty(t *testing.T) {
	formats := []Format{FullMap{}, LimitedPtr{K: 1}, LimitedPtr{K: 4}, Coarse{G: 2}, Coarse{G: 16}}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cores := 128
		s := bitvec.New(cores)
		for i := 0; i < int(nRaw)%cores; i++ {
			s.Set(rng.Intn(cores))
		}
		for _, fm := range formats {
			got := fm.Decode(fm.Encode(s), cores)
			ok := true
			s.ForEach(func(i int) {
				if !got.Test(i) {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseWithFormatConservative(t *testing.T) {
	env := trackertest.New(8, 8, 32)
	d := NewSparseWithFormat(64, Coarse{G: 8})
	d.Attach(env)
	if d.Name() != "sparse-coarse8" {
		t.Fatal(d.Name())
	}
	sh := proto.Entry{State: proto.Shared, Sharers: setOf(32, 1, 9)}
	d.Commit(5, proto.GetS, 1, sh)
	e, ok := d.Lookup(5)
	if !ok || e.State != proto.Shared {
		t.Fatal("entry lost")
	}
	if e.Sharers.Count() != 16 {
		t.Fatalf("stored set should be coarse superset: %d sharers", e.Sharers.Count())
	}
	if !e.Sharers.Test(1) || !e.Sharers.Test(9) {
		t.Fatal("true sharers missing from stored set")
	}
	m := map[string]uint64{}
	d.Metrics(m)
	if m["dir.format.inflatedSharers"] != 14 {
		t.Fatalf("inflation metric %v", m)
	}
	// Exclusive entries are unaffected by the format.
	d.Commit(6, proto.GetX, 3, proto.Entry{State: proto.Exclusive, Owner: 3})
	if e, _ := d.Lookup(6); e.State != proto.Exclusive || e.Owner != 3 {
		t.Fatal("exclusive entry mangled by format")
	}
}
