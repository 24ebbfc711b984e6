package dir

import (
	"tinydir/internal/cache"
	"tinydir/internal/freelist"
	"tinydir/internal/proto"
)

// SharedOnly is the Fig. 3 limit study: non-shared blocks (unowned,
// exclusively owned, or shared with a single sharer) are tracked in a
// special structure of unbounded capacity whose overhead is ignored, while
// a small sparse directory is dedicated to blocks that entered the shared
// state with two or more distinct sharers. The tracking entry stays in the
// sparse directory until evicted or until the block loses all holders.
//
// With Skewed true the sparse part is a 4-way skew-associative array with
// H3 hashes (the paper's Z-cache variant; see DESIGN.md for the
// relocation simplification).
type SharedOnly struct {
	env proto.BankEnv

	// setAssoc is the sparse part unless skewed is set.
	setAssoc cache.Cache[proto.Entry]
	skewed   *cache.Skewed[proto.Entry]

	// unbounded tracks every block not resident in the sparse part.
	unbounded map[uint64]proto.Entry

	allocs  uint64
	victims uint64
}

// sharedOnlyList holds released SharedOnly trackers for the next
// machine's banks.
var sharedOnlyList freelist.List[*SharedOnly]

// NewSharedOnly builds the limit-study tracker with the given sparse
// capacity, on a released one when there is one (only the unbounded
// map's capacity carries over). skewed selects the 4-way H3
// skew-associative organization.
func NewSharedOnly(entries int, skewed bool) *SharedOnly {
	s, ok := sharedOnlyList.Get()
	if !ok {
		s = &SharedOnly{unbounded: map[uint64]proto.Entry{}}
	}
	clear(s.unbounded)
	*s = SharedOnly{unbounded: s.unbounded}
	if skewed {
		ways := 4
		sets := entries / ways
		if sets < 1 {
			sets = 1
		}
		// Round down to a power of two for the H3 masks.
		p := 1
		for p*2 <= sets {
			p *= 2
		}
		s.skewed = cache.NewSkewed[proto.Entry](p, ways, 0x51ed)
	} else {
		initTags(&s.setAssoc, &dirTagPool, entries)
	}
	return s
}

// Name implements proto.Tracker.
func (s *SharedOnly) Name() string {
	if s.skewed != nil {
		return "sharedonly-skew"
	}
	return "sharedonly"
}

// Attach implements proto.Tracker.
func (s *SharedOnly) Attach(env proto.BankEnv) {
	s.env = env
	if s.skewed == nil {
		s.setAssoc.SetIndexShift(env.BankShift())
	}
}

func (s *SharedOnly) sparseGet(addr uint64) (proto.Entry, bool) {
	if s.skewed != nil {
		if l := s.skewed.Lookup(addr); l != nil {
			return l.Meta, true
		}
		return proto.Entry{}, false
	}
	if l := s.setAssoc.Lookup(addr); l != nil {
		return l.Meta, true
	}
	return proto.Entry{}, false
}

// Begin implements proto.Tracker.
func (s *SharedOnly) Begin(addr uint64, kind proto.ReqKind, llcHit bool) proto.View {
	v := proto.View{SupplyFromLLC: true}
	if e, ok := s.sparseGet(addr); ok {
		v.E = e
		return v
	}
	if e, ok := s.unbounded[addr]; ok {
		v.E = e
	}
	return v
}

// Commit implements proto.Tracker.
func (s *SharedOnly) Commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry) proto.Effects {
	var eff proto.Effects
	inSparse := false
	if _, ok := s.sparseGet(addr); ok {
		inSparse = true
	}
	if next.State == proto.Unowned {
		s.remove(addr)
		return eff
	}
	// Blocks belong in the sparse part only while shared by >= 2 cores;
	// an entry already resident stays until eviction or loss of holders.
	wantSparse := next.State == proto.Shared && next.Sharers.Count() >= 2
	switch {
	case inSparse:
		s.sparseUpdate(addr, next)
	case wantSparse:
		delete(s.unbounded, addr)
		eff = s.sparseInsert(addr, next)
	default:
		s.unbounded[addr] = next
	}
	return eff
}

func (s *SharedOnly) sparseUpdate(addr uint64, e proto.Entry) {
	if s.skewed != nil {
		l := s.skewed.Lookup(addr)
		l.Meta = e
		s.skewed.Touch(l)
		return
	}
	l := s.setAssoc.Lookup(addr)
	l.Meta = e
	s.setAssoc.Touch(l)
}

func (s *SharedOnly) sparseInsert(addr uint64, e proto.Entry) proto.Effects {
	var eff proto.Effects
	s.allocs++
	skip := func(c *cache.Line[proto.Entry]) bool {
		return c.Valid && s.env.IsBusy(c.Addr)
	}
	if s.skewed != nil {
		// The skewed array has no filtered insert; fall back to the
		// unbounded structure if the victim is busy (rare).
		v := s.skewed.Victim(addr)
		if v.Valid && s.env.IsBusy(v.Addr) {
			s.unbounded[addr] = e
			return eff
		}
		l, ev, had := s.skewed.Insert(addr)
		if had {
			s.victims++
			eff.BackInvals = append(eff.BackInvals, proto.Victim{Addr: ev.Addr, E: ev.Meta})
		}
		l.Meta = e
		return eff
	}
	l, ev, had := s.setAssoc.InsertWhere(addr, skip)
	if l == nil {
		s.unbounded[addr] = e
		return eff
	}
	if had {
		s.victims++
		eff.BackInvals = append(eff.BackInvals, proto.Victim{Addr: ev.Addr, E: ev.Meta})
	}
	l.Meta = e
	return eff
}

func (s *SharedOnly) remove(addr uint64) {
	delete(s.unbounded, addr)
	if s.skewed != nil {
		s.skewed.Invalidate(addr)
		return
	}
	s.setAssoc.Invalidate(addr)
}

// OnLLCVictim implements proto.Tracker.
func (s *SharedOnly) OnLLCVictim(l *proto.LLCLine) proto.Effects { return proto.Effects{} }

// Lookup implements proto.Tracker.
func (s *SharedOnly) Lookup(addr uint64) (proto.Entry, bool) {
	if e, ok := s.sparseGet(addr); ok {
		return e, true
	}
	e, ok := s.unbounded[addr]
	return e, ok
}

// ReleaseStorage implements proto.Tracker: it returns a set-associative
// tag array (the skewed one is not pooled) and then the tracker itself to
// their free lists; the tracker is unusable afterwards.
func (s *SharedOnly) ReleaseStorage() {
	if s.skewed == nil {
		s.setAssoc.Release(&dirTagPool)
	}
	sharedOnlyList.Put(s)
}

// Metrics implements proto.Tracker.
func (s *SharedOnly) Metrics(m map[string]uint64) {
	m["dir.allocs"] += s.allocs
	m["dir.victims"] += s.victims
	m["dir.unbounded"] += uint64(len(s.unbounded))
}
