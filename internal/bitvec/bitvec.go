// Package bitvec implements the full-map sharer bitvector used by every
// directory organization in this repository. The paper assumes a full-map
// vector per entry (128 bits for 128 cores); a Vec holds exactly that, so
// simulated machines are capped at 128 cores.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxBits is the largest vector New accepts: the paper's 128-core
// full-map width.
const MaxBits = 128

// Vec is a fixed-capacity bitvector of at most MaxBits bits, stored
// inline. It is a plain value: assigning a Vec copies it, so two
// variables never share bits, and nothing allocates. The zero Vec has
// length 0.
type Vec struct {
	n     int
	words [MaxBits / 64]uint64
}

// New returns an empty vector with capacity for n bits. It panics when n
// is negative or above MaxBits.
func New(n int) Vec {
	if n < 0 || n > MaxBits {
		panic(fmt.Sprintf("bitvec: size %d outside [0,%d]", n, MaxBits))
	}
	return Vec{n: n}
}

// Len returns the capacity in bits.
func (v Vec) Len() int { return v.n }

func (v *Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Set sets bit i.
func (v *Vec) Set(i int) {
	v.check(i)
	v.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear clears bit i.
func (v *Vec) Clear(i int) {
	v.check(i)
	v.words[i/64] &^= 1 << (uint(i) % 64)
}

// Test reports whether bit i is set.
func (v Vec) Test(i int) bool {
	v.check(i)
	return v.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of set bits (the sharer count).
func (v Vec) Count() int {
	return bits.OnesCount64(v.words[0]) + bits.OnesCount64(v.words[1])
}

// Empty reports whether no bits are set.
func (v Vec) Empty() bool { return v.words[0]|v.words[1] == 0 }

// First returns the index of the lowest set bit, or -1 if none.
func (v Vec) First() int {
	switch {
	case v.words[0] != 0:
		return bits.TrailingZeros64(v.words[0])
	case v.words[1] != 0:
		return 64 + bits.TrailingZeros64(v.words[1])
	}
	return -1
}

// Next returns the index of the lowest set bit strictly greater than i, or
// -1 if none. Use First/Next to iterate sharers.
func (v Vec) Next(i int) int {
	i++
	if i >= v.n {
		return -1
	}
	wi := i / 64
	if w := v.words[wi] >> (uint(i) % 64); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	if wi == 0 && v.words[1] != 0 {
		return 64 + bits.TrailingZeros64(v.words[1])
	}
	return -1
}

// ForEach calls fn for each set bit in ascending order.
func (v Vec) ForEach(fn func(i int)) {
	for i := v.First(); i >= 0; i = v.Next(i) {
		fn(i)
	}
}

// Reset clears all bits in place.
func (v *Vec) Reset() { v.words = [MaxBits / 64]uint64{} }

// Clone returns v. Plain assignment already copies a Vec, and no code in
// this module calls Clone; it stays only because the bench module still
// does.
func (v Vec) Clone() Vec { return v }

// String renders the vector as a set, e.g. "{0,5,17}".
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	v.ForEach(func(i int) {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i)
		first = false
	})
	b.WriteByte('}')
	return b.String()
}
