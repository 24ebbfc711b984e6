package cache

import "tinydir/internal/freelist"

// Pool recycles the line storage of retired same-geometry caches. Sweeps
// build and drop hundreds of identical machines back to back, and zeroing
// fresh tag arrays (make + memclr of multi-megabyte slabs) dominates
// their construction cost; a recycled slab instead pays only for wiping
// the lines the previous run actually touched, which short runs leave
// mostly untouched. Reuse is invisible to simulation results: a recycled
// cache is field-for-field identical to a freshly constructed one, and
// the pool itself is concurrency-safe (parallel sweeps share it).
//
// The zero value is ready to use. Each geometry has one free list, which
// keeps every slab handed back: it holds at most as many slabs as caches
// of that geometry were ever live at once, and never returns them to the
// garbage collector.
type Pool[T any] struct {
	lists freelist.Keyed[geom, slab[T]]
}

type geom struct{ sets, ways int }

type slab[T any] struct {
	lines []Line[T]
	tags  []uint64
	used  []int32
}

// InitIn is New for a cache header the caller holds by value (a field
// of a node or tracker): it sets c up in place, overwriting whatever c
// held, drawing storage from p when a retired slab of the same geometry
// is available.
func (c *Cache[T]) InitIn(p *Pool[T], sets, ways int, policy Policy) {
	if s, ok := p.lists.List(geom{sets, ways}).Get(); ok {
		*c = Cache[T]{sets: sets, ways: ways, policy: policy,
			lines: s.lines, tags: s.tags, used: s.used}
		if sets&(sets-1) == 0 {
			c.mask = uint64(sets - 1)
		}
		return
	}
	c.init(sets, ways, policy)
}

// Release wipes c's mutable state back to the just-constructed baseline
// and hands the storage to p for a later InitIn. The cache must not be
// used afterwards. Caches that went through LoadState lost their
// touched-line log and pay a full wipe; everything else wipes only the
// lines ever touched.
func (c *Cache[T]) Release(p *Pool[T]) {
	if c.untracked {
		for i := range c.lines {
			l := &c.lines[i]
			*l = Line[T]{set: l.set, way: l.way}
			c.tags[i] = invalidTag
		}
	} else {
		for _, i := range c.used {
			l := &c.lines[i]
			*l = Line[T]{set: l.set, way: l.way}
			c.tags[i] = invalidTag
		}
	}
	s := slab[T]{lines: c.lines, tags: c.tags, used: c.used[:0]}
	c.lines, c.tags, c.used = nil, nil, nil
	p.lists.List(geom{c.sets, c.ways}).Put(s)
}
