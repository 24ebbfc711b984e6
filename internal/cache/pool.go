package cache

import "sync"

// Pool recycles the line storage of retired same-geometry caches. Sweeps
// build and drop hundreds of identical machines back to back, and zeroing
// fresh tag arrays (make + memclr of multi-megabyte slabs) dominates
// their construction cost; a recycled slab instead pays only for wiping
// the lines the previous run actually touched, which short runs leave
// mostly untouched. Reuse is invisible to simulation results: a recycled
// cache is field-for-field identical to a freshly constructed one, and
// the pool itself is concurrency-safe (parallel sweeps share it).
//
// The zero value is ready to use. Slabs are held via sync.Pool, so idle
// storage is reclaimed by the garbage collector rather than pinned.
type Pool[T any] struct {
	m sync.Map // geom -> *sync.Pool of slab[T]
}

type geom struct{ sets, ways int }

type slab[T any] struct {
	lines []Line[T]
	tags  []uint64
	used  []int32
}

func (p *Pool[T]) bucket(g geom) *sync.Pool {
	if b, ok := p.m.Load(g); ok {
		return b.(*sync.Pool)
	}
	b, _ := p.m.LoadOrStore(g, &sync.Pool{})
	return b.(*sync.Pool)
}

// NewIn is New, drawing storage from p when a retired slab of the same
// geometry is available. p may be nil (plain New).
func NewIn[T any](p *Pool[T], sets, ways int, policy Policy) *Cache[T] {
	c := new(Cache[T])
	c.InitIn(p, sets, ways, policy)
	return c
}

// InitIn is NewIn for a cache header the caller holds by value (a field
// of a larger node): it sets c up in place, overwriting whatever c held.
func (c *Cache[T]) InitIn(p *Pool[T], sets, ways int, policy Policy) {
	if p != nil {
		if s, ok := p.bucket(geom{sets, ways}).Get().(*slab[T]); ok {
			*c = Cache[T]{sets: sets, ways: ways, policy: policy,
				lines: s.lines, tags: s.tags, used: s.used[:0], box: s}
			*s = slab[T]{}
			if sets&(sets-1) == 0 {
				c.mask = uint64(sets - 1)
			}
			return
		}
	}
	c.init(sets, ways, policy)
}

// Release wipes c's mutable state back to the just-constructed baseline
// and hands the storage to p for a later NewIn, in the pool entry it came
// in when there is one. The cache must not be used afterwards. Caches
// that went through LoadState lost their touched-line log and pay a full
// wipe; everything else wipes only the lines ever touched.
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
	s := c.box
	if s == nil {
		s = &slab[T]{}
	}
	*s = slab[T]{lines: c.lines, tags: c.tags, used: c.used[:0]}
	c.lines, c.tags, c.used, c.box = nil, nil, nil, nil
	p.bucket(geom{c.sets, c.ways}).Put(s)
}
