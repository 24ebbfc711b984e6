package dir

import (
	"tinydir/internal/cache"
	"tinydir/internal/freelist"
	"tinydir/internal/proto"
)

// RegionBlocks is the MgD region size: 1 KB regions = 16 blocks of 64 B.
const RegionBlocks = 16

// MgD models the multi-grain directory (Zebchuk, Falsafi & Moshovos,
// MICRO 2013): a single tag array holds entries at two grains. A *region*
// entry says "core O may hold blocks of this 1 KB region, and no other
// core holds any block of the region that is not individually tracked";
// it costs one entry regardless of how many blocks O caches. Blocks that
// become shared — or privately held by a second core — get ordinary
// block-grain entries, which take precedence over the region entry.
//
// Simplifications (documented in DESIGN.md): the array is 8-way
// set-associative NRU rather than skew-associative, and region break-up
// resolves the true holder through the FindHolders oracle (modeling the
// owner probe MgD performs) without charging a probe round trip for
// blocks the owner turns out not to hold.
//
// Region geometry: the home LLC banks interleave at block granularity,
// so a physically contiguous 1 KB region spans 16 different home banks —
// a directory slice can only track (and back-invalidate) blocks it
// homes. Regions are therefore defined over the bank-local address
// space: the 16 blocks a slice covers per region entry are consecutive
// *within the bank* (physically RegionBlocks x banks apart). With hashed
// page placement this weakens MgD's region coverage relative to the
// paper's region-interleaved setup; EXPERIMENTS.md discusses the effect
// on Fig. 22.
type MgD struct {
	env   proto.BankEnv
	tags  cache.Cache[mgdEntry]
	shift uint // bank-selection bits stripped for region formation
	bank  uint64

	// overflow and regionOverflow hold block and region entries that
	// could not be placed because every candidate way was busy (rare);
	// dropping them would leave live private copies untracked. Each is
	// nil until its first spill.
	overflow       map[uint64]proto.Entry
	regionOverflow map[uint64]int // region -> owner

	allocs       uint64
	victims      uint64
	regionAllocs uint64
	regionEvicts uint64
}

type mgdEntry struct {
	region bool
	e      proto.Entry // block grain: full entry; region grain: Owner used
}

// blockKey/regionKey tag the shared array: the low bit distinguishes the
// grain so both kinds of entries coexist in one structure.
func blockKey(addr uint64) uint64    { return addr << 1 }
func regionKey(region uint64) uint64 { return region<<1 | 1 }

// regionOf maps a block to its bank-local region index.
func (d *MgD) regionOf(addr uint64) uint64 { return (addr >> d.shift) / RegionBlocks }

// regionBlock reconstructs the i-th block address of a bank-local region.
func (d *MgD) regionBlock(region uint64, i uint64) uint64 {
	return (region*RegionBlocks+i)<<d.shift | d.bank
}

// mgdList holds released MgD trackers for the next machine's banks, and
// mgdTagPool their tag arrays (see cache.Pool).
var (
	mgdList    freelist.List[*MgD]
	mgdTagPool cache.Pool[mgdEntry]
)

// NewMgD builds an MgD slice with the given entry count, on a released
// one when there is one (only map capacity carries over).
func NewMgD(entries int) *MgD {
	d, ok := mgdList.Get()
	if !ok {
		d = new(MgD)
	}
	clear(d.overflow)
	clear(d.regionOverflow)
	*d = MgD{overflow: d.overflow, regionOverflow: d.regionOverflow}
	initTags(&d.tags, &mgdTagPool, entries)
	return d
}

// Name implements proto.Tracker.
func (d *MgD) Name() string { return "mgd" }

// Attach implements proto.Tracker.
func (d *MgD) Attach(env proto.BankEnv) {
	d.env = env
	d.shift = env.BankShift()
	d.bank = uint64(env.BankID())
	// Keys carry the grain bit in bit 0, so the bank bits sit one higher.
	d.tags.SetIndexShift(env.BankShift() + 1)
}

// Begin implements proto.Tracker.
func (d *MgD) Begin(addr uint64, kind proto.ReqKind, llcHit bool) proto.View {
	v := proto.View{SupplyFromLLC: true}
	if e, ok := d.overflow[addr]; ok {
		v.E = e
		return v
	}
	if l := d.tags.Lookup(blockKey(addr)); l != nil {
		v.E = l.Meta.e
		return v
	}
	if owner, ok := d.regionOwner(d.regionOf(addr)); ok {
		// The region entry says only the region owner may hold this
		// block. Resolve whether it actually does (the owner probe).
		actual := d.env.FindHolders(addr)
		if actual.State == proto.Exclusive && actual.Owner == owner {
			v.E = actual
		}
	}
	return v
}

// regionOwner finds a region entry in the tag array or the overflow.
func (d *MgD) regionOwner(region uint64) (int, bool) {
	if rl := d.tags.Lookup(regionKey(region)); rl != nil {
		return rl.Meta.e.Owner, true
	}
	o, ok := d.regionOverflow[region]
	return o, ok
}

// Commit implements proto.Tracker.
func (d *MgD) Commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry) proto.Effects {
	var eff proto.Effects
	if next.State == proto.Unowned {
		d.tags.Invalidate(blockKey(addr))
		delete(d.overflow, addr)
		return eff
	}
	if _, ok := d.overflow[addr]; ok {
		d.overflow[addr] = next
		return eff
	}
	if l := d.tags.Lookup(blockKey(addr)); l != nil {
		l.Meta.e = next
		d.tags.Touch(l)
		return eff
	}
	if next.State == proto.Exclusive {
		if owner, ok := d.regionOwner(d.regionOf(addr)); ok {
			if owner == next.Owner {
				// Covered by the private region entry: no new entry.
				if rl := d.tags.Lookup(regionKey(d.regionOf(addr))); rl != nil {
					d.tags.Touch(rl)
				}
				return eff
			}
			// Foreign owner: fall through to a block-grain entry.
			return d.insert(blockKey(addr), mgdEntry{e: next})
		}
		// First private fill of the region: allocate a region entry.
		d.regionAllocs++
		return d.insert(regionKey(d.regionOf(addr)), mgdEntry{region: true, e: next})
	}
	// Shared state always needs block grain.
	return d.insert(blockKey(addr), mgdEntry{e: next})
}

func (d *MgD) insert(key uint64, me mgdEntry) proto.Effects {
	var eff proto.Effects
	d.allocs++
	l, ev, had := d.tags.InsertWhere(key, func(c *cache.Line[mgdEntry]) bool {
		if !c.Valid {
			return false
		}
		if c.Meta.region {
			// A region entry covers up to RegionBlocks busy candidates.
			region := c.Addr >> 1
			for i := uint64(0); i < RegionBlocks; i++ {
				if d.env.IsBusy(d.regionBlock(region, i)) {
					return true
				}
			}
			return false
		}
		return d.env.IsBusy(c.Addr >> 1)
	})
	if l == nil {
		// Every candidate way busy: keep correctness via the unbounded
		// overflow structures (rare).
		if me.region {
			if d.regionOverflow == nil {
				d.regionOverflow = map[uint64]int{}
			}
			d.regionOverflow[key>>1] = me.e.Owner
		} else {
			if d.overflow == nil {
				d.overflow = map[uint64]proto.Entry{}
			}
			d.overflow[key>>1] = me.e
		}
		return eff
	}
	if had {
		eff.Merge(d.evictEntry(ev))
	}
	l.Meta = me
	return eff
}

func (d *MgD) evictEntry(ev cache.Line[mgdEntry]) proto.Effects {
	var eff proto.Effects
	if !ev.Meta.region {
		d.victims++
		eff.BackInvals = append(eff.BackInvals, proto.Victim{Addr: ev.Addr >> 1, E: ev.Meta.e})
		return eff
	}
	// Region entry eviction: invalidate every block of the region held by
	// the region owner that has no block-grain entry of its own.
	d.regionEvicts++
	region := ev.Addr >> 1
	owner := ev.Meta.e.Owner
	for i := uint64(0); i < RegionBlocks; i++ {
		blk := d.regionBlock(region, i)
		if d.tags.Lookup(blockKey(blk)) != nil {
			continue
		}
		if _, ok := d.overflow[blk]; ok {
			continue
		}
		actual := d.env.FindHolders(blk)
		if actual.State == proto.Exclusive && actual.Owner == owner {
			d.victims++
			eff.BackInvals = append(eff.BackInvals, proto.Victim{Addr: blk, E: actual})
		}
	}
	return eff
}

// OnLLCVictim implements proto.Tracker.
func (d *MgD) OnLLCVictim(l *proto.LLCLine) proto.Effects { return proto.Effects{} }

// Lookup implements proto.Tracker.
func (d *MgD) Lookup(addr uint64) (proto.Entry, bool) {
	if e, ok := d.overflow[addr]; ok {
		return e, true
	}
	if l := d.tags.Lookup(blockKey(addr)); l != nil {
		return l.Meta.e, true
	}
	if owner, ok := d.regionOwner(d.regionOf(addr)); ok {
		actual := d.env.FindHolders(addr)
		if actual.State == proto.Exclusive && actual.Owner == owner {
			return actual, true
		}
	}
	return proto.Entry{}, false
}

// ReleaseStorage implements proto.Tracker: it returns the tag array and
// then the directory itself to their free lists; the directory is
// unusable afterwards.
func (d *MgD) ReleaseStorage() {
	d.tags.Release(&mgdTagPool)
	mgdList.Put(d)
}

// Metrics implements proto.Tracker.
func (d *MgD) Metrics(m map[string]uint64) {
	m["dir.allocs"] += d.allocs
	m["dir.victims"] += d.victims
	m["dir.mgd.regionAllocs"] += d.regionAllocs
	m["dir.mgd.regionEvicts"] += d.regionEvicts
}
