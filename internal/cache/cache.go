// Package cache implements the tag-array models used for the private L1/L2
// caches, the shared LLC banks, and every sparse-directory organization.
// Only tags and metadata are modeled; data values are not simulated.
//
// Two organizations are provided: the conventional set-associative array
// (LRU or 1-bit NRU replacement, matching Table I of the paper) and a
// skewed-associative array with H3 hash functions (used for the Fig. 3
// limit study of a 4-way skew-associative shared-only directory).
package cache

import "fmt"

// Policy selects the replacement policy of a set-associative array.
type Policy int

const (
	// LRU is true least-recently-used replacement (caches in Table I).
	LRU Policy = iota
	// NRU is 1-bit not-recently-used replacement (sparse directory slices).
	NRU
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case NRU:
		return "NRU"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Line is one tag-array entry. Meta carries the caller's per-line state
// (coherence state, dirty bits, STRA counters, ...).
type Line[T any] struct {
	Addr  uint64 // block address (byte address >> block bits)
	Valid bool
	Meta  T

	stamp uint64 // LRU recency stamp
	ref   bool   // NRU reference bit
	set   int32
	way   int32
}

// Set returns the set index of the line.
func (l *Line[T]) Set() int { return int(l.set) }

// invalidTag marks an empty way in the tag side-array. The address
// ^uint64(0) is reserved (install paths panic on it), so the side-array
// invariant is exact: tags[i] == invalidTag iff lines[i] is invalid.
// Block addresses are byte addresses shifted right by the block bits, so
// no modeled address can reach the sentinel. Tag-match scans still
// confirm against the Line before returning it.
const invalidTag = ^uint64(0)

// Cache is a set-associative tag array.
type Cache[T any] struct {
	sets   int
	ways   int
	policy Policy
	shift  uint
	mask   uint64    // sets-1 when sets is a power of two, else 0
	lines  []Line[T] // sets*ways, row-major by set
	// tags mirrors lines[i].Addr for valid lines (invalidTag otherwise)
	// in a compact parallel array, so a set scan touches ways*8 bytes
	// instead of ways full Line structs. Maintained by every method that
	// installs or invalidates a line.
	tags  []uint64
	clock uint64
	// used logs each line the first time it is touched, so Release can
	// wipe exactly the dirtied lines instead of the whole slab. stamp ==
	// 0 identifies a pristine line (every install goes through Touch,
	// which starts the clock at 1). untracked marks a cache whose lines
	// were written directly by LoadState, invalidating the log.
	used      []int32
	untracked bool
}

// New returns a cache with the given geometry. sets and ways must be
// positive; a fully-associative structure is sets == 1.
func New[T any](sets, ways int, policy Policy) *Cache[T] {
	c := new(Cache[T])
	c.init(sets, ways, policy)
	return c
}

// init sets c up as New would, allocating fresh storage.
func (c *Cache[T]) init(sets, ways int, policy Policy) {
	if sets <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	*c = Cache[T]{sets: sets, ways: ways, policy: policy}
	if sets&(sets-1) == 0 {
		c.mask = uint64(sets - 1)
	}
	c.lines = make([]Line[T], sets*ways)
	c.tags = make([]uint64, sets*ways)
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			l := &c.lines[s*ways+w]
			l.set, l.way = int32(s), int32(w)
			c.tags[s*ways+w] = invalidTag
		}
	}
}

// setTag keeps the tag side-array in sync with l's identity. Install
// paths reject the reserved sentinel address so the invariant
// (sentinel tag iff invalid line) stays exact.
func (c *Cache[T]) setTag(l *Line[T], tag uint64) {
	c.tags[int(l.set)*c.ways+int(l.way)] = tag
}

// rebuildTags regenerates the tag side-array from the lines (after a
// snapshot restore wrote line identities directly).
func (c *Cache[T]) rebuildTags() {
	for i := range c.lines {
		if c.lines[i].Valid {
			if c.lines[i].Addr == invalidTag {
				panic("cache: restored line with reserved address ^uint64(0)")
			}
			c.tags[i] = c.lines[i].Addr
		} else {
			c.tags[i] = invalidTag
		}
	}
}

// Sets returns the number of sets.
func (c *Cache[T]) Sets() int { return c.sets }

// SetIndexShift discards the low s address bits before set indexing.
// Banked structures (LLC banks, directory slices) use it to strip the
// bank-selection bits, which are constant within one bank.
func (c *Cache[T]) SetIndexShift(s uint) { c.shift = s }

// SetIndex maps a block address to its set. Every modeled geometry has a
// power-of-two set count, so the hot path is a mask; the modulo fallback
// keeps odd test geometries working. Both pick identical sets for
// power-of-two counts, so this is invisible to replacement behavior.
func (c *Cache[T]) SetIndex(addr uint64) int {
	a := addr >> c.shift
	if c.mask != 0 {
		return int(a & c.mask)
	}
	return int(a % uint64(c.sets))
}

// LinesIn returns the backing lines of addr's set (all ways, valid or
// not), in physical way order. The slice aliases the cache's storage:
// callers may mutate Meta in place but must not append to, reorder, or
// retain it. Hot paths scan a set through it directly, with no per-line
// callback.
func (c *Cache[T]) LinesIn(addr uint64) []Line[T] {
	base := c.SetIndex(addr) * c.ways
	return c.lines[base : base+c.ways]
}

// TagsIn returns the tag side-array slice of addr's set, parallel to
// LinesIn. A tag equal to addr marks a *candidate* way: the caller must
// confirm against the Line (Valid && Addr == addr) before using it, since
// a real address may collide with the invalid-way sentinel.
func (c *Cache[T]) TagsIn(addr uint64) []uint64 {
	base := c.SetIndex(addr) * c.ways
	return c.tags[base : base+c.ways]
}

// Lookup returns the line holding addr, or nil. It does not update
// replacement state; callers decide when an access counts as a use (Touch).
func (c *Cache[T]) Lookup(addr uint64) *Line[T] {
	base := c.SetIndex(addr) * c.ways
	tags := c.tags[base : base+c.ways]
	for w := range tags {
		if tags[w] == addr {
			l := &c.lines[base+w]
			if l.Valid && l.Addr == addr {
				return l
			}
		}
	}
	return nil
}

// Touch marks the line as most-recently used (LRU) or recently used (NRU).
func (c *Cache[T]) Touch(l *Line[T]) {
	if l.stamp == 0 {
		c.used = append(c.used, l.set*int32(c.ways)+l.way)
	}
	c.clock++
	l.stamp = c.clock
	l.ref = true
}

// Victim returns the line that Insert would replace for addr, without
// modifying anything. If the set has an invalid way, that way is returned.
func (c *Cache[T]) Victim(addr uint64) *Line[T] {
	return c.victimIn(c.SetIndex(addr), nil)
}

// VictimWhere is Victim with a filter: lines for which skip returns true
// are never chosen (e.g. a data block must outlive its spilled tracking
// entry). If every way is skipped it returns nil.
func (c *Cache[T]) VictimWhere(addr uint64, skip func(*Line[T]) bool) *Line[T] {
	return c.victimIn(c.SetIndex(addr), skip)
}

func (c *Cache[T]) victimIn(s int, skip func(*Line[T]) bool) *Line[T] {
	base := s * c.ways
	// Invalid way first (the tag invariant makes this a tag-only scan;
	// full sets — the common steady state — never touch the lines here).
	tags := c.tags[base : base+c.ways]
	for w := range tags {
		if tags[w] == invalidTag {
			l := &c.lines[base+w]
			if skip == nil || !skip(l) {
				return l
			}
		}
	}
	switch c.policy {
	case LRU:
		var best *Line[T]
		for w := 0; w < c.ways; w++ {
			l := &c.lines[base+w]
			if skip != nil && skip(l) {
				continue
			}
			if best == nil || l.stamp < best.stamp {
				best = l
			}
		}
		return best
	case NRU:
		// First pass: lowest way with ref bit clear. If all referenced,
		// gang-clear and retry (standard 1-bit NRU).
		for pass := 0; pass < 2; pass++ {
			for w := 0; w < c.ways; w++ {
				l := &c.lines[base+w]
				if skip != nil && skip(l) {
					continue
				}
				if !l.ref {
					return l
				}
			}
			for w := 0; w < c.ways; w++ {
				c.lines[base+w].ref = false
			}
		}
		// All ways skipped.
		return nil
	}
	return nil
}

// Insert places addr into the cache, evicting the replacement victim if the
// set is full. It returns the line now holding addr and, if a valid line
// was displaced, a copy of that line (so the caller can issue writebacks or
// back-invalidations). The new line is marked most-recently used and its
// Meta is zeroed.
func (c *Cache[T]) Insert(addr uint64) (l *Line[T], evicted Line[T], hadVictim bool) {
	return c.InsertWhere(addr, nil)
}

// InsertWhere is Insert with a victim filter (see VictimWhere). If every
// candidate is skipped, it returns l == nil.
func (c *Cache[T]) InsertWhere(addr uint64, skip func(*Line[T]) bool) (l *Line[T], evicted Line[T], hadVictim bool) {
	if addr == invalidTag {
		panic("cache: address ^uint64(0) is reserved")
	}
	if ex := c.Lookup(addr); ex != nil {
		c.Touch(ex)
		return ex, Line[T]{}, false
	}
	v := c.victimIn(c.SetIndex(addr), skip)
	if v == nil {
		return nil, Line[T]{}, false
	}
	if v.Valid {
		evicted = *v
		hadVictim = true
	}
	var zero T
	v.Addr = addr
	v.Valid = true
	v.Meta = zero
	c.setTag(v, addr)
	c.Touch(v)
	return v, evicted, hadVictim
}

// Replace installs addr into the given line of this cache without a
// lookup, zeroing Meta and marking it most-recently used. It is the
// primitive behind spilled-tracking-entry allocation, where a second line
// with the *same* tag as an existing data block must be created (a plain
// Insert would hit the data block). The caller is responsible for having
// dealt with the previous occupant (see Victim/VictimWhere) and for
// passing a line that belongs to addr's set.
func (c *Cache[T]) Replace(l *Line[T], addr uint64) {
	if int(l.set) != c.SetIndex(addr) {
		panic("cache: Replace outside the address's set")
	}
	if addr == invalidTag {
		panic("cache: address ^uint64(0) is reserved")
	}
	var zero T
	l.Addr = addr
	l.Valid = true
	l.Meta = zero
	c.setTag(l, addr)
	c.Touch(l)
}

// Invalidate removes addr from the cache and returns the line contents that
// were present, if any.
func (c *Cache[T]) Invalidate(addr uint64) (Line[T], bool) {
	l := c.Lookup(addr)
	if l == nil {
		return Line[T]{}, false
	}
	old := *l
	var zero T
	l.Valid = false
	l.Meta = zero
	l.ref = false
	c.setTag(l, invalidTag)
	return old, true
}

// InvalidateLine removes the given line directly (used when two lines
// carry the same tag — a spilled tracking entry and its data block — and
// an address-based Invalidate would be ambiguous).
func (c *Cache[T]) InvalidateLine(l *Line[T]) {
	var zero T
	l.Valid = false
	l.Meta = zero
	l.ref = false
	c.setTag(l, invalidTag)
}

// ForEach calls fn for every valid line. The walk is driven by the tag
// side-array, so sparsely populated caches (end-of-run harvests over a
// mostly empty LLC) skip invalid lines without touching them.
func (c *Cache[T]) ForEach(fn func(*Line[T])) {
	for i, tg := range c.tags {
		if tg != invalidTag {
			fn(&c.lines[i])
		}
	}
}
