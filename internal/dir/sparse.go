// Package dir implements the baseline coherence-tracking organizations the
// paper compares against: the traditional sparse directory (Fig. 1), the
// shared-blocks-only limit study (Fig. 3), the multi-grain directory MgD
// and the Stash directory (Fig. 22).
package dir

import (
	"tinydir/internal/cache"
	"tinydir/internal/freelist"
	"tinydir/internal/proto"
)

// Sparse is the traditional sparse directory slice of one LLC bank: a
// cache of full-map tracking entries. A replacement invalidates (or
// retrieves, if dirty) the block from all private caches holding it.
type Sparse struct {
	env  proto.BankEnv
	tags cache.Cache[proto.Entry]
	// format optionally narrows the sharer field (limited pointers or a
	// coarse vector); stored sharer sets become conservative supersets
	// and the protocol pays the resulting extra invalidations. nil means
	// the paper's full-map default.
	format Format
	// overflow holds entries that could not be placed because every
	// candidate way belonged to a busy block — a simulator-side escape
	// hatch that preserves correctness; it is counted, stays tiny, and is
	// nil until the first spill of this tracker or of a released one it
	// was rebuilt from.
	overflow map[uint64]proto.Entry

	allocs    uint64
	victims   uint64
	overflows uint64
	inflated  uint64 // cores added to sharer sets by lossy encoding

	// victimBuf backs the BackInvals slice of returned Effects. A Commit
	// displaces at most one entry, and the caller consumes the Effects
	// before its next Commit (bank.apply runs synchronously and never
	// re-enters Commit), so one scratch backing serves every call.
	victimBuf []proto.Victim
}

// NewSparse builds a sparse directory slice with the given number of
// entries. Slices with fewer than 32 entries are fully associative, like
// the paper's 1/128x and 1/256x configurations; larger slices are 8-way
// set-associative with 1-bit NRU replacement (Table I).
func NewSparse(entries int) *Sparse { return newSparse(entries, nil) }

// NewSparseWithFormat builds a sparse directory whose sharer field uses
// the given encoding format (see format.go). The protocol stays correct
// because decoded sets are supersets of the true sharers; the precision
// loss surfaces as extra invalidation traffic and is measured by the
// entry-format ablation.
func NewSparseWithFormat(entries int, f Format) *Sparse { return newSparse(entries, f) }

// sparseList holds released Sparse trackers for the next machine's banks.
var sparseList freelist.List[*Sparse]

// newSparse builds a Sparse on a released one when there is one. Only
// the capacity of its buffers carries over, so every other field starts
// as in a fresh tracker.
func newSparse(entries int, f Format) *Sparse {
	d, ok := sparseList.Get()
	if !ok {
		d = new(Sparse)
	}
	clear(d.overflow)
	*d = Sparse{format: f, overflow: d.overflow, victimBuf: d.victimBuf[:0]}
	initTags(&d.tags, &dirTagPool, entries)
	return d
}

// dirTagPool recycles directory tag arrays across the back-to-back
// same-geometry machines a sweep constructs (see cache.Pool).
var dirTagPool cache.Pool[proto.Entry]

// initTags sets c up, with storage from p, as a directory slice of the
// given entry count: fully associative below 32 entries, 8-way
// set-associative above, with NRU replacement.
func initTags[T any](c *cache.Cache[T], p *cache.Pool[T], entries int) {
	if entries <= 0 {
		panic("dir: non-positive entry count")
	}
	if entries < 32 {
		c.InitIn(p, 1, entries, cache.NRU)
		return
	}
	c.InitIn(p, entries/8, 8, cache.NRU)
}

// Name implements proto.Tracker.
func (d *Sparse) Name() string {
	if d.format != nil {
		return "sparse-" + d.format.Name()
	}
	return "sparse"
}

// Attach implements proto.Tracker.
func (d *Sparse) Attach(env proto.BankEnv) {
	d.env = env
	d.tags.SetIndexShift(env.BankShift())
}

// Begin implements proto.Tracker.
func (d *Sparse) Begin(addr uint64, kind proto.ReqKind, llcHit bool) proto.View {
	e, ok := d.get(addr)
	v := proto.View{SupplyFromLLC: true}
	if ok {
		v.E = e
	}
	return v
}

func (d *Sparse) get(addr uint64) (proto.Entry, bool) {
	if l := d.tags.Lookup(addr); l != nil {
		return l.Meta, true
	}
	if len(d.overflow) > 0 {
		e, ok := d.overflow[addr]
		return e, ok
	}
	return proto.Entry{}, false
}

// Commit implements proto.Tracker.
func (d *Sparse) Commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry) proto.Effects {
	var eff proto.Effects
	if d.format != nil && next.State == proto.Shared {
		// Round-trip through the encoding: the stored set becomes the
		// (possibly conservative) decodable superset.
		exact := next.Sharers
		next.Sharers = d.format.Decode(d.format.Encode(exact), d.env.Cores())
		if extra := next.Sharers.Count() - exact.Count(); extra > 0 {
			d.inflated += uint64(extra)
		}
	}
	if next.State == proto.Unowned {
		d.tags.Invalidate(addr)
		delete(d.overflow, addr)
		return eff
	}
	if _, inOverflow := d.overflow[addr]; inOverflow {
		d.overflow[addr] = next
		return eff
	}
	if l := d.tags.Lookup(addr); l != nil {
		l.Meta = next
		d.tags.Touch(l)
		return eff
	}
	d.allocs++
	l, ev, had := d.tags.InsertWhere(addr, func(c *cache.Line[proto.Entry]) bool {
		return c.Valid && d.env.IsBusy(c.Addr)
	})
	if l == nil {
		// Every way busy: spill into the unbounded overflow (rare), made
		// on first use.
		d.overflows++
		if d.overflow == nil {
			d.overflow = map[uint64]proto.Entry{}
		}
		d.overflow[addr] = next
		return eff
	}
	if had {
		d.victims++
		d.victimBuf = append(d.victimBuf[:0], proto.Victim{Addr: ev.Addr, E: ev.Meta})
		eff.BackInvals = d.victimBuf
	}
	l.Meta = next
	return eff
}

// ReleaseStorage implements proto.Tracker: it returns the tag array and
// then the directory itself to their free lists; the directory is
// unusable afterwards.
func (d *Sparse) ReleaseStorage() {
	d.tags.Release(&dirTagPool)
	sparseList.Put(d)
}

// OnLLCVictim implements proto.Tracker. A sparse directory keeps tracking
// independent of LLC residency, so nothing happens.
func (d *Sparse) OnLLCVictim(l *proto.LLCLine) proto.Effects { return proto.Effects{} }

// Lookup implements proto.Tracker.
func (d *Sparse) Lookup(addr uint64) (proto.Entry, bool) { return d.get(addr) }

// Metrics implements proto.Tracker.
func (d *Sparse) Metrics(m map[string]uint64) {
	m["dir.allocs"] += d.allocs
	m["dir.victims"] += d.victims
	m["dir.overflows"] += d.overflows
	if d.format != nil {
		m["dir.format.inflatedSharers"] += d.inflated
	}
}
