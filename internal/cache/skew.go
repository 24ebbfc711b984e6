package cache

// Skewed-associative tag array with H3 hash functions, used for the paper's
// Fig. 3 limit study ("four-way skew-associative sparse directory that
// employs a H3 hash-based Z-cache organization"). We implement the skewed
// lookup with per-way H3 hashes and NRU-among-candidates replacement; the
// Z-cache relocation walk is not modeled (documented simplification in
// DESIGN.md) — the dominant conflict-reduction effect comes from the
// skewed hashing itself.

import "math/bits"

// h3 is an H3 universal hash: the i-th input bit, when set, XORs a fixed
// random row into the output. Rows are derived from a splitmix64 stream so
// hashes are deterministic across runs.
type h3 struct {
	rows [64]uint64
	mask uint64
}

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newH3(seed uint64, outBits int) h3 {
	var h h3
	s := seed
	for i := range h.rows {
		h.rows[i] = splitmix64(&s)
	}
	if outBits >= 64 {
		h.mask = ^uint64(0)
	} else {
		h.mask = (1 << uint(outBits)) - 1
	}
	return h
}

func (h h3) hash(x uint64) uint64 {
	var out uint64
	for x != 0 {
		i := bits.TrailingZeros64(x)
		out ^= h.rows[i]
		x &= x - 1
	}
	return out & h.mask
}

// Skewed is a skewed-associative tag array: way w indexes set hw(addr)
// where each way has its own H3 hash.
type Skewed[T any] struct {
	sets   int
	ways   int
	lines  []Line[T] // ways * sets; way-major
	hashes []h3
	clock  uint64
}

// NewSkewed returns a skewed-associative array with the given geometry.
// sets must be a power of two (H3 output is a bit mask).
func NewSkewed[T any](sets, ways int, seed uint64) *Skewed[T] {
	if sets <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	if sets&(sets-1) != 0 {
		panic("cache: skewed sets must be a power of two")
	}
	outBits := bits.TrailingZeros(uint(sets))
	c := &Skewed[T]{sets: sets, ways: ways}
	c.lines = make([]Line[T], sets*ways)
	for w := 0; w < ways; w++ {
		c.hashes = append(c.hashes, newH3(seed+uint64(w)*0x1000193, outBits))
		for s := 0; s < sets; s++ {
			l := &c.lines[w*sets+s]
			l.set, l.way = int32(s), int32(w)
		}
	}
	return c
}

func (c *Skewed[T]) line(w int, addr uint64) *Line[T] {
	s := int(c.hashes[w].hash(addr))
	return &c.lines[w*c.sets+s]
}

// Lookup returns the line holding addr, or nil.
func (c *Skewed[T]) Lookup(addr uint64) *Line[T] {
	for w := 0; w < c.ways; w++ {
		l := c.line(w, addr)
		if l.Valid && l.Addr == addr {
			return l
		}
	}
	return nil
}

// Touch marks the line recently used.
func (c *Skewed[T]) Touch(l *Line[T]) {
	c.clock++
	l.stamp = c.clock
	l.ref = true
}

// Victim returns the candidate that Insert would replace for addr.
func (c *Skewed[T]) Victim(addr uint64) *Line[T] {
	// Invalid candidate first, else LRU among the ways' candidates.
	var best *Line[T]
	for w := 0; w < c.ways; w++ {
		l := c.line(w, addr)
		if !l.Valid {
			return l
		}
		if best == nil || l.stamp < best.stamp {
			best = l
		}
	}
	return best
}

// Insert places addr, evicting the victim candidate if all ways' candidate
// slots are valid. Semantics match Cache.Insert.
func (c *Skewed[T]) Insert(addr uint64) (l *Line[T], evicted Line[T], hadVictim bool) {
	if ex := c.Lookup(addr); ex != nil {
		c.Touch(ex)
		return ex, Line[T]{}, false
	}
	v := c.Victim(addr)
	if v.Valid {
		evicted = *v
		hadVictim = true
	}
	var zero T
	v.Addr = addr
	v.Valid = true
	v.Meta = zero
	c.Touch(v)
	return v, evicted, hadVictim
}

// Invalidate removes addr and returns the previous contents, if present.
func (c *Skewed[T]) Invalidate(addr uint64) (Line[T], bool) {
	l := c.Lookup(addr)
	if l == nil {
		return Line[T]{}, false
	}
	old := *l
	var zero T
	l.Valid = false
	l.Meta = zero
	l.ref = false
	return old, true
}
