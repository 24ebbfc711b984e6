package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasic(t *testing.T) {
	v := New(128)
	if !v.Empty() || v.Count() != 0 || v.First() != -1 {
		t.Fatal("fresh vector not empty")
	}
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(127)
	if v.Count() != 4 {
		t.Fatalf("Count = %d, want 4", v.Count())
	}
	for _, i := range []int{0, 63, 64, 127} {
		if !v.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if v.Test(1) || v.Test(65) {
		t.Fatal("unexpected bit set")
	}
	v.Clear(63)
	if v.Test(63) || v.Count() != 3 {
		t.Fatal("Clear failed")
	}
	if v.String() != "{0,64,127}" {
		t.Fatalf("String = %q", v.String())
	}
}

func TestIteration(t *testing.T) {
	v := New(128)
	want := []int{3, 63, 64, 65, 127}
	for _, i := range want {
		v.Set(i)
	}
	if v.First() != 3 {
		t.Fatalf("First = %d", v.First())
	}
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	if v.Next(127) != -1 {
		t.Fatal("Next past the end should be -1")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, f := range []func(){func() { v.Set(8) }, func() { v.Test(-1) }, func() { v.Clear(100) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestValueSemantics pins that a Vec is a value: changing a copy, whether
// made by assignment, by storing it in a struct or by passing it to a
// function, leaves the original untouched.
func TestValueSemantics(t *testing.T) {
	v := New(128)
	v.Set(5)
	v.Set(100)
	c := v
	c.Set(6)
	c.Clear(100)
	if v.Test(6) || !v.Test(100) {
		t.Fatalf("changing a copy changed the original: %v", v)
	}
	type entry struct{ s Vec }
	e := entry{s: v}
	e.s.Reset()
	if v.Count() != 2 {
		t.Fatalf("resetting a struct's copy changed the original: %v", v)
	}
	func(w Vec) { w.Set(7) }(v)
	if v.Test(7) {
		t.Fatal("a callee's copy changed the caller's vector")
	}
	if !c.Test(5) || c.Test(100) || !c.Test(6) {
		t.Fatalf("copy lost its own changes: %v", c)
	}
}

// TestWordBoundaries sets, tests, iterates and clears the bits on either
// side of the 64-bit word boundary and at the top of the vector, for every
// length around those boundaries.
func TestWordBoundaries(t *testing.T) {
	for _, n := range []int{63, 64, 65, 127, 128} {
		for _, i := range []int{0, 62, 63, 64, 65, 126, 127} {
			if i >= n {
				continue
			}
			v := New(n)
			v.Set(i)
			if !v.Test(i) || v.Count() != 1 || v.First() != i || v.Next(i) != -1 {
				t.Fatalf("New(%d) with bit %d: Test %v Count %d First %d Next %d",
					n, i, v.Test(i), v.Count(), v.First(), v.Next(i))
			}
			if i > 0 && v.Next(i-1) != i {
				t.Fatalf("New(%d): Next(%d) = %d, want %d", n, i-1, v.Next(i-1), i)
			}
			if got := FromWords(n, v.Words()); got != v {
				t.Fatalf("New(%d) bit %d: word round trip gave %v", n, i, got)
			}
			v.Clear(i)
			if !v.Empty() {
				t.Fatalf("New(%d): Clear(%d) left %v", n, i, v)
			}
		}
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i)
		}
		if v.Count() != n {
			t.Fatalf("New(%d) full: Count = %d", n, v.Count())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d).Set(%d) did not panic", n, n)
				}
			}()
			v.Set(n)
		}()
	}
}

func TestNewPanicsAboveMaxBits(t *testing.T) {
	for _, n := range []int{MaxBits + 1, 256, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	v := New(64)
	v.Set(5)
	c := v.Clone()
	c.Set(6)
	if v.Test(6) {
		t.Fatal("Clone shares storage")
	}
	if !c.Test(5) {
		t.Fatal("Clone lost bit")
	}
	if v == c {
		t.Fatal("vectors equal after divergence")
	}
	c.Clear(6)
	if v != c {
		t.Fatal("vectors differ after undoing the divergence")
	}
}

func TestResetAndZeroLen(t *testing.T) {
	v := New(100)
	for i := 0; i < 100; i += 7 {
		v.Set(i)
	}
	v.Reset()
	if !v.Empty() {
		t.Fatal("Reset did not clear")
	}
	z := New(0)
	if !z.Empty() || z.First() != -1 || z.Count() != 0 {
		t.Fatal("zero-length vector misbehaves")
	}
}

// Property: a Vec behaves exactly like a map[int]bool model under a random
// operation sequence.
func TestModelEquivalence(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(MaxBits)
		v := New(n)
		model := map[int]bool{}
		for op := 0; op < int(nOps); op++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				v.Set(i)
				model[i] = true
			case 1:
				v.Clear(i)
				delete(model, i)
			case 2:
				if v.Test(i) != model[i] {
					return false
				}
			}
		}
		if v.Count() != len(model) {
			return false
		}
		seen := 0
		ok := true
		v.ForEach(func(i int) {
			seen++
			if !model[i] {
				ok = false
			}
		})
		return ok && seen == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: First/Next iteration is strictly increasing and visits Count()
// bits.
func TestIterationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		v := New(MaxBits)
		for _, r := range raw {
			v.Set(int(r) % MaxBits)
		}
		prev := -1
		n := 0
		for i := v.First(); i >= 0; i = v.Next(i) {
			if i <= prev {
				return false
			}
			prev = i
			n++
		}
		return n == v.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount128(b *testing.B) {
	v := New(128)
	for i := 0; i < 128; i += 3 {
		v.Set(i)
	}
	for i := 0; i < b.N; i++ {
		_ = v.Count()
	}
}
