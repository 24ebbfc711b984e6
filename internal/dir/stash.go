package dir

import (
	"tinydir/internal/cache"
	"tinydir/internal/freelist"
	"tinydir/internal/proto"
)

// Stash models the Stash directory (Demetriades & Cho, HPCA 2014): when a
// directory entry tracking a *private* (exclusively owned) block is
// evicted, the block is NOT invalidated — the tracking is simply dropped.
// If such an untracked block is later requested by another core, the home
// bank must broadcast to recover the owner. Entries for shared blocks are
// back-invalidated on eviction as usual.
//
// The `untracked` set is simulator-side bookkeeping that records exactly
// which blocks have live untracked copies, so broadcasts are charged only
// when a recovery is actually required. Hardware cannot know this
// precisely and broadcasts on every suspicious directory miss, so this
// model is *generous* to Stash; it nevertheless reproduces the paper's
// qualitative result that broadcast recovery throttles performance at
// scale (see EXPERIMENTS.md).
type Stash struct {
	env  proto.BankEnv
	tags cache.Cache[proto.Entry]

	// untracked holds blocks whose private copies outlive their entry.
	untracked map[uint64]bool
	overflow  map[uint64]proto.Entry

	allocs     uint64
	victims    uint64
	drops      uint64
	broadcasts uint64

	// victimBuf backs the BackInvals slice of returned Effects, as in
	// Sparse: a Commit displaces at most one entry.
	victimBuf []proto.Victim
}

// stashList holds released Stash trackers for the next machine's banks.
var stashList freelist.List[*Stash]

// NewStash builds a Stash directory slice with the given entry count, on
// a released one when there is one (only buffer capacity carries over).
func NewStash(entries int) *Stash {
	d, ok := stashList.Get()
	if !ok {
		d = &Stash{untracked: map[uint64]bool{}, overflow: map[uint64]proto.Entry{}}
	}
	clear(d.untracked)
	clear(d.overflow)
	*d = Stash{untracked: d.untracked, overflow: d.overflow, victimBuf: d.victimBuf[:0]}
	initTags(&d.tags, &dirTagPool, entries)
	return d
}

// Name implements proto.Tracker.
func (d *Stash) Name() string { return "stash" }

// Attach implements proto.Tracker.
func (d *Stash) Attach(env proto.BankEnv) {
	d.env = env
	d.tags.SetIndexShift(env.BankShift())
}

// Begin implements proto.Tracker.
func (d *Stash) Begin(addr uint64, kind proto.ReqKind, llcHit bool) proto.View {
	v := proto.View{SupplyFromLLC: true}
	if l := d.tags.Lookup(addr); l != nil {
		v.E = l.Meta
		return v
	}
	if e, ok := d.overflow[addr]; ok {
		v.E = e
		return v
	}
	if d.untracked[addr] && !kind.IsEvict() {
		// The block has an untracked private copy: the bank must perform
		// broadcast recovery to find it. FindHolders models the snoop
		// responses; the bank charges the latency and traffic.
		d.broadcasts++
		v.E = d.env.FindHolders(addr)
		v.NeedBroadcast = true
	}
	if kind.IsEvict() && d.untracked[addr] {
		// An untracked owner is evicting: reconstruct silently.
		v.E = d.env.FindHolders(addr)
	}
	return v
}

// Commit implements proto.Tracker.
func (d *Stash) Commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry) proto.Effects {
	var eff proto.Effects
	delete(d.untracked, addr)
	if next.State == proto.Unowned {
		d.tags.Invalidate(addr)
		delete(d.overflow, addr)
		return eff
	}
	if _, ok := d.overflow[addr]; ok {
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
		d.overflow[addr] = next
		return eff
	}
	if had {
		if ev.Meta.State == proto.Exclusive {
			// The Stash trick: drop tracking, keep the private copy.
			d.drops++
			d.untracked[ev.Addr] = true
		} else {
			d.victims++
			d.victimBuf = append(d.victimBuf[:0], proto.Victim{Addr: ev.Addr, E: ev.Meta})
			eff.BackInvals = d.victimBuf
		}
	}
	l.Meta = next
	return eff
}

// ReleaseStorage implements proto.Tracker: it returns the tag array and
// then the directory itself to their free lists; the directory is
// unusable afterwards.
func (d *Stash) ReleaseStorage() {
	d.tags.Release(&dirTagPool)
	stashList.Put(d)
}

// OnLLCVictim implements proto.Tracker.
func (d *Stash) OnLLCVictim(l *proto.LLCLine) proto.Effects { return proto.Effects{} }

// Lookup implements proto.Tracker.
func (d *Stash) Lookup(addr uint64) (proto.Entry, bool) {
	if l := d.tags.Lookup(addr); l != nil {
		return l.Meta, true
	}
	if e, ok := d.overflow[addr]; ok {
		return e, true
	}
	if d.untracked[addr] {
		return d.env.FindHolders(addr), true
	}
	return proto.Entry{}, false
}

// Metrics implements proto.Tracker.
func (d *Stash) Metrics(m map[string]uint64) {
	m["dir.allocs"] += d.allocs
	m["dir.victims"] += d.victims
	m["dir.stash.drops"] += d.drops
	m["dir.stash.broadcasts"] += d.broadcasts
	m["dir.stash.untracked"] += uint64(len(d.untracked))
}
