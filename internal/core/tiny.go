package core

import (
	"tinydir/internal/cache"
	"tinydir/internal/freelist"
	"tinydir/internal/proto"
	"tinydir/internal/sim"
)

// TinyConfig selects the tiny-directory policy stack of §IV.
type TinyConfig struct {
	// Entries is the slice capacity (e.g. 64 for 1/32x, 8 for 1/256x).
	Entries int
	// GNRU enables the generational not-recently-used extension of the
	// DSTRA allocation policy (§IV-A2).
	GNRU bool
	// Spill enables dynamic selective spilling of shared tracking
	// entries into the LLC (§IV-B).
	Spill bool
	// WindowAccesses overrides the §IV-B2 observation-window length of
	// 8K accesses per bank (tests use shorter windows). 0 = default.
	WindowAccesses uint64
	// FixedGenLen, when non-zero, pins the gNRU generation length to a
	// fixed number of 4K-cycle units instead of the paper's adaptive
	// mean-inter-reuse estimate. Used by the generation-length ablation
	// (the paper notes the length "needs to be chosen carefully").
	FixedGenLen uint64
}

// Tiny implements the paper's tiny directory: the in-LLC scheme of §III
// augmented with a minimally-sized sparse directory that captures the
// subset of shared blocks with the highest STRA ratios, plus optional
// spilling of shared tracking entries into LLC ways.
type Tiny struct {
	env proto.BankEnv
	cfg TinyConfig

	tags cache.Cache[tinyEntry]

	// gNRU generation machinery (§IV-A2): accA accumulates inter-reuse
	// gaps in 4K-cycle units, accB counts samples; a generation ends
	// every accA/accB units.
	accA, accB uint64
	nextGenEnd sim.Time

	// Dynamic spill state (§IV-B2): spillIdx is the STRA spill threshold
	// category index i of this bank; categories >= i may spill.
	spillIdx int
	win      winStats

	// Metrics.
	hits        uint64 // demand hits in the tiny directory (Fig. 16)
	allocs      uint64 // entry fills (Fig. 17)
	evictions   uint64
	spills      uint64
	spillSaved  uint64 // shared reads answered thanks to a spilled entry (Fig. 19)
	stateWrites uint64
	catAccess   [NumCategories]uint64

	// effBuf backs the lists of returned Effects.
	effBuf effectsBuf
}

// effectsBuf is the scratch backing a tracker reuses for the lists of the
// Effects it returns, so steady-state calls allocate none. The home bank
// consumes each returned Effects before its next call into the tracker
// (bank.apply runs synchronously and never re-enters it), so one backing
// serves every call: a returned Effects is valid until the next start.
type effectsBuf struct {
	backInvals []proto.Victim
	recon      []int
	writebacks []uint64
}

// start returns an empty Effects whose lists append into the buffer.
func (b *effectsBuf) start() proto.Effects {
	return proto.Effects{BackInvals: b.backInvals[:0], ReconFromCores: b.recon[:0], LLCWritebacks: b.writebacks[:0]}
}

// keep retains e's lists, grown by its appends, for the next start and
// returns e.
func (b *effectsBuf) keep(e proto.Effects) proto.Effects {
	b.backInvals, b.recon, b.writebacks = e.BackInvals, e.ReconFromCores, e.LLCWritebacks
	return e
}

type tinyEntry struct {
	e          proto.Entry
	strac, oac uint8
	lastT      uint16
	r, ep      bool
}

type winStats struct {
	accesses, sharedReads uint64
	accSample, missSample uint64
	accOther, missOther   uint64
}

const (
	windowAccesses = 8192
	genUnit        = 4096 // cycles per timestamp tick (§IV-A2)
	defaultGenLen  = 16   // units, until A/B estimates accrue
	maxGenLen      = 1024 // the 10-bit counter ceiling (4M cycles)
	sampleSets     = 16   // no-spill sets per bank (§IV-B2)
)

// NewTiny builds a tiny directory slice, on a released one when there is
// one (only the capacity of its Effects buffers carries over). Slices
// with fewer than 32 entries are fully associative (the paper's 1/128x
// and 1/256x points); larger ones are 8-way set-associative.
func NewTiny(cfg TinyConfig) *Tiny {
	if cfg.Entries <= 0 {
		panic("core: non-positive tiny directory size")
	}
	t, ok := tinyList.Get()
	if !ok {
		t = new(Tiny)
	}
	*t = Tiny{cfg: cfg, spillIdx: 7, effBuf: t.effBuf}
	if cfg.Entries < 32 {
		t.tags.InitIn(&tinyTagPool, 1, cfg.Entries, cache.NRU)
	} else {
		t.tags.InitIn(&tinyTagPool, cfg.Entries/8, 8, cache.NRU)
	}
	return t
}

// tinyList holds released tiny directories for the next machine's banks,
// and tinyTagPool their tag arrays (see cache.Pool).
var (
	tinyList    freelist.List[*Tiny]
	tinyTagPool cache.Pool[tinyEntry]
)

// ReleaseStorage implements proto.Tracker: it returns the tag array and
// then the directory itself to their free lists; the directory is
// unusable afterwards.
func (t *Tiny) ReleaseStorage() {
	t.tags.Release(&tinyTagPool)
	tinyList.Put(t)
}

// Name implements proto.Tracker.
func (t *Tiny) Name() string {
	n := "tiny-dstra"
	if t.cfg.GNRU {
		n += "+gnru"
	}
	if t.cfg.Spill {
		n += "+dynspill"
	}
	return n
}

// Attach implements proto.Tracker.
func (t *Tiny) Attach(env proto.BankEnv) {
	t.env = env
	t.tags.SetIndexShift(env.BankShift())
}

// findLines locates the data block line and the spilled tracking entry
// line for addr, either of which may be nil.
func (t *Tiny) findLines(addr uint64) (db, sp *proto.LLCLine) {
	llc := t.env.LLC()
	tags := llc.TagsIn(addr)
	for w := range tags {
		if tags[w] != addr {
			continue
		}
		l := &llc.LinesIn(addr)[w]
		if !l.Valid || l.Addr != addr {
			continue
		}
		if l.Meta.Spill {
			sp = l
		} else {
			db = l
		}
		if db != nil && sp != nil {
			return
		}
	}
	return
}

// Begin implements proto.Tracker.
func (t *Tiny) Begin(addr uint64, kind proto.ReqKind, llcHit bool) proto.View {
	t.genTick()
	v := proto.View{SupplyFromLLC: true}
	demand := !kind.IsEvict()
	var strac, oac *uint8

	if dl := t.tags.Lookup(addr); dl != nil {
		v.E = dl.Meta.e
		dl.Meta.r, dl.Meta.ep = true, false
		t.noteReuse(&dl.Meta)
		t.tags.Touch(dl)
		strac, oac = &dl.Meta.strac, &dl.Meta.oac
		if demand {
			t.hits++
		}
	} else if db, sp := t.findLines(addr); sp != nil {
		v.E = sp.Meta.Track
		v.SpillHit = true
		strac, oac = &sp.Meta.STRAC, &sp.Meta.OAC
		// LRU-position trick of §IV-B1: EB to MRU first, then B, so the
		// spilled entry is always victimized before its data block.
		t.env.LLC().Touch(sp)
		if db != nil {
			t.env.LLC().Touch(db)
		}
		if demand && kind.IsRead() && v.E.State == proto.Shared {
			t.spillSaved++
		}
	} else if db != nil && db.Meta.Corrupted {
		v.E = db.Meta.Track
		strac, oac = &db.Meta.STRAC, &db.Meta.OAC
		switch v.E.State {
		case proto.Shared:
			v.SupplyFromLLC = false
			v.ExtraLatency = 1
		case proto.Exclusive:
			v.ExtraLatency = 3
		}
	}

	if demand && strac != nil {
		if kind.IsRead() && v.E.State == proto.Shared {
			NoteSharedRead(strac, oac)
			if !v.SupplyFromLLC {
				t.catAccess[Category(*strac, *oac)]++
			}
		} else {
			NoteOther(strac, oac)
		}
	}
	if demand && t.cfg.Spill {
		t.windowNote(addr, llcHit, kind.IsRead() && v.E.State == proto.Shared)
	}
	return v
}

// Commit implements proto.Tracker.
func (t *Tiny) Commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry) proto.Effects {
	eff := t.effBuf.start()
	t.commit(addr, kind, from, next, &eff)
	return t.effBuf.keep(eff)
}

func (t *Tiny) commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry, eff *proto.Effects) {
	t.genTick()
	db, sp := t.findLines(addr)
	dl := t.tags.Lookup(addr)

	if next.State == proto.Unowned {
		if dl != nil {
			t.tags.Invalidate(addr)
		}
		if sp != nil {
			t.env.LLC().InvalidateLine(sp)
		}
		if db != nil {
			if db.Meta.Corrupted {
				if kind == proto.PutE || kind == proto.PutS {
					eff.ReconFromCores = append(eff.ReconFromCores, from)
				}
				db.Meta.Corrupted = false
				db.Meta.Track = proto.Entry{}
				eff.LLCStateWrites++
				t.stateWrites++
			}
			db.Meta.STRAC, db.Meta.OAC = 0, 0
		}
		return
	}

	if dl != nil {
		dl.Meta.e = next
		return
	}
	if sp != nil {
		if next.State == proto.Shared {
			sp.Meta.Track = next
			eff.LLCStateWrites++
			t.stateWrites++
			return
		}
		// Read-exclusive or upgrade: EB is invalidated and the state
		// moves into B as corrupted-exclusive (§IV-B1).
		strac, oac := sp.Meta.STRAC, sp.Meta.OAC
		t.env.LLC().InvalidateLine(sp)
		if db == nil {
			panic("tiny: spilled entry without a data block")
		}
		db.Meta.Corrupted = true
		db.Meta.Track = next
		db.Meta.STRAC, db.Meta.OAC = strac, oac
		eff.LLCStateWrites++
		t.stateWrites++
		return
	}

	wasCorrupted := db != nil && db.Meta.Corrupted
	var cat int
	if db != nil {
		cat = Category(db.Meta.STRAC, db.Meta.OAC)
	}
	// The allocation policy is consulted in exactly two situations
	// (§IV): a read to a block in corrupted state, or an instruction
	// read to an unowned block.
	tryAlloc := (kind.IsRead() && wasCorrupted) || (kind == proto.GetI && !wasCorrupted)
	if tryAlloc && t.allocate(addr, cat, next, db, eff) {
		return
	}
	// The spill policy is invoked when the allocation policy declines a
	// demand request's block (§IV-B2 situation i); eviction notices only
	// update state.
	if t.cfg.Spill && !kind.IsEvict() && next.State == proto.Shared && db != nil &&
		!t.sampledSet(db.Set()) && cat >= t.spillIdx &&
		t.spillInto(addr, next, db, db.Meta.STRAC, db.Meta.OAC, eff) {
		return
	}
	if db == nil {
		panic("tiny: commit without an LLC line")
	}
	db.Meta.Corrupted = true
	db.Meta.Track = next
	eff.LLCStateWrites++
	t.stateWrites++
}

// allocate runs the DSTRA / DSTRA+gNRU allocation policy (§IV-A) and, on
// success, installs the entry and reconstructs the LLC block.
func (t *Tiny) allocate(addr uint64, cat int, next proto.Entry, db *proto.LLCLine, eff *proto.Effects) bool {
	ways := t.tags.LinesIn(addr)
	var victim *cache.Line[tinyEntry]
	for i := range ways {
		if !ways[i].Valid {
			victim = &ways[i]
			break
		}
	}
	if victim == nil {
		// Way with the lowest STRA category; under gNRU, ways with the
		// eviction-priority bit set win ties, then the lowest way id.
		for i := range ways {
			w := &ways[i]
			if t.env.IsBusy(w.Addr) {
				continue
			}
			if victim == nil {
				victim = w
				continue
			}
			wc := Category(w.Meta.strac, w.Meta.oac)
			vc := Category(victim.Meta.strac, victim.Meta.oac)
			if wc < vc || (wc == vc && t.cfg.GNRU && w.Meta.ep && !victim.Meta.ep) {
				victim = w
			}
		}
		if victim == nil {
			return false
		}
		vc := Category(victim.Meta.strac, victim.Meta.oac)
		allowed := vc < cat || (t.cfg.GNRU && vc == cat && victim.Meta.ep)
		if !allowed {
			return false
		}
		t.displace(victim, eff)
	}

	t.allocs++
	t.tags.Replace(victim, addr)
	victim.Meta = tinyEntry{e: next, r: true, lastT: t.timestamp()}
	if db != nil {
		victim.Meta.strac, victim.Meta.oac = db.Meta.STRAC, db.Meta.OAC
		db.Meta.STRAC, db.Meta.OAC = 0, 0
		if db.Meta.Corrupted {
			t.reconstruct(db, eff)
		}
	}
	return true
}

// displace evicts a tiny-directory entry: shared victims get a chance to
// spill (§IV-B, situation ii); otherwise the state is transferred into
// the victim's LLC line as corrupted, or the holders are back-invalidated
// when the data block is no longer LLC-resident (rare).
func (t *Tiny) displace(victim *cache.Line[tinyEntry], eff *proto.Effects) {
	t.evictions++
	vaddr := victim.Addr
	ve := victim.Meta.e
	vdb, _ := t.findLines(vaddr)
	vcat := Category(victim.Meta.strac, victim.Meta.oac)
	if t.cfg.Spill && ve.State == proto.Shared && vdb != nil &&
		!t.sampledSet(vdb.Set()) && vcat >= t.spillIdx &&
		t.spillInto(vaddr, ve, vdb, victim.Meta.strac, victim.Meta.oac, eff) {
		return
	}
	if vdb != nil {
		vdb.Meta.Corrupted = true
		vdb.Meta.Track = ve
		vdb.Meta.STRAC, vdb.Meta.OAC = victim.Meta.strac, victim.Meta.oac
		eff.LLCStateWrites++
		t.stateWrites++
		return
	}
	eff.BackInvals = append(eff.BackInvals, proto.Victim{Addr: vaddr, E: ve})
}

// spillInto allocates a spilled tracking entry EB in B's LLC set.
func (t *Tiny) spillInto(addr uint64, e proto.Entry, db *proto.LLCLine, strac, oac uint8, eff *proto.Effects) bool {
	llc := t.env.LLC()
	v := llc.VictimWhere(addr, func(l *proto.LLCLine) bool {
		if l == db {
			return true // never displace B for its own EB
		}
		if !l.Valid {
			return false
		}
		if t.env.IsBusy(l.Addr) {
			return true
		}
		if !l.Meta.Spill && !l.Meta.Corrupted {
			// Keep data blocks that have their own spilled entry: the
			// pair is managed by the LRU-order invariant.
			if _, sib := t.findLinesIn(l.Addr); sib != nil {
				return true
			}
		}
		return false
	})
	if v == nil {
		return false
	}
	if v.Valid {
		t.onLLCVictim(v, eff)
		if !v.Meta.Spill && !v.Meta.Corrupted && v.Meta.Dirty {
			eff.LLCWritebacks = append(eff.LLCWritebacks, v.Addr)
		}
	}
	llc.Replace(v, addr)
	v.Meta.Spill = true
	v.Meta.Track = e
	v.Meta.STRAC, v.Meta.OAC = strac, oac
	if db.Meta.Corrupted {
		t.reconstruct(db, eff)
	}
	db.Meta.STRAC, db.Meta.OAC = 0, 0
	llc.Touch(v)
	llc.Touch(db)
	t.spills++
	eff.LLCStateWrites++
	t.stateWrites++
	return true
}

// findLinesIn is findLines for an arbitrary address (avoids shadowing
// confusion at call sites inside victim scans).
func (t *Tiny) findLinesIn(addr uint64) (db, sp *proto.LLCLine) { return t.findLines(addr) }

// reconstruct restores a corrupted LLC block to the normal valid state.
// The borrowed bits are supplied by the owner or an elected sharer as
// part of the in-flight transaction (§IV: "asking the elected sharer or
// the owner to not only forward the block to the requester but also send
// the corrupted bits of the block to the LLC").
func (t *Tiny) reconstruct(db *proto.LLCLine, eff *proto.Effects) {
	prev := db.Meta.Track
	supplier := -1
	switch prev.State {
	case proto.Exclusive:
		supplier = prev.Owner
	case proto.Shared:
		supplier = prev.Sharers.First()
	}
	if supplier >= 0 {
		eff.ReconFromCores = append(eff.ReconFromCores, supplier)
	}
	db.Meta.Corrupted = false
	db.Meta.Track = proto.Entry{}
	eff.LLCStateWrites++
	t.stateWrites++
}

// OnLLCVictim implements proto.Tracker.
func (t *Tiny) OnLLCVictim(l *proto.LLCLine) proto.Effects {
	eff := t.effBuf.start()
	t.onLLCVictim(l, &eff)
	return t.effBuf.keep(eff)
}

// onLLCVictim appends the effects of evicting LLC line l to eff.
func (t *Tiny) onLLCVictim(l *proto.LLCLine, eff *proto.Effects) {
	switch {
	case l.Meta.Spill:
		// Transfer the tracking state back into the data block.
		db, _ := t.findLines(l.Addr)
		if db != nil && db != l {
			db.Meta.Corrupted = true
			db.Meta.Track = l.Meta.Track
			db.Meta.STRAC, db.Meta.OAC = l.Meta.STRAC, l.Meta.OAC
			eff.LLCStateWrites++
			t.stateWrites++
		} else {
			eff.BackInvals = append(eff.BackInvals, proto.Victim{Addr: l.Addr, E: l.Meta.Track})
		}
	case l.Meta.Corrupted:
		eff.BackInvals = append(eff.BackInvals, proto.Victim{Addr: l.Addr, E: l.Meta.Track})
	default:
		// A data block with a spilled entry should never be chosen while
		// EB lives (LRU-order invariant); handle defensively.
		if _, sp := t.findLines(l.Addr); sp != nil && sp != l {
			eff.BackInvals = append(eff.BackInvals, proto.Victim{Addr: l.Addr, E: sp.Meta.Track})
			t.env.LLC().InvalidateLine(sp)
		}
	}
}

// Lookup implements proto.Tracker.
func (t *Tiny) Lookup(addr uint64) (proto.Entry, bool) {
	if dl := t.tags.Lookup(addr); dl != nil {
		return dl.Meta.e, true
	}
	db, sp := t.findLines(addr)
	if sp != nil {
		return sp.Meta.Track, true
	}
	if db != nil && db.Meta.Corrupted {
		return db.Meta.Track, true
	}
	return proto.Entry{}, false
}

// --- gNRU generation machinery (§IV-A2) ---

func (t *Tiny) timestamp() uint16 {
	return uint16((uint64(t.env.Now()) / genUnit) & (maxGenLen - 1))
}

func (t *Tiny) noteReuse(m *tinyEntry) {
	if !t.cfg.GNRU {
		return
	}
	tc := t.timestamp()
	if m.lastT < tc {
		t.accA += uint64(tc - m.lastT)
		t.accB++
		if t.accA >= 1<<18 || t.accB >= 1<<10 {
			t.accA /= 2
			t.accB /= 2
		}
	}
	m.lastT = tc
}

func (t *Tiny) genTick() {
	if !t.cfg.GNRU || t.env == nil {
		return
	}
	now := t.env.Now()
	if now < t.nextGenEnd {
		return
	}
	t.tags.ForEach(func(l *cache.Line[tinyEntry]) {
		if !l.Meta.r {
			l.Meta.ep = true
		}
		l.Meta.r = false
	})
	g := uint64(defaultGenLen)
	switch {
	case t.cfg.FixedGenLen > 0:
		g = t.cfg.FixedGenLen
		if g > maxGenLen {
			g = maxGenLen
		}
	case t.accB > 0:
		g = t.accA / t.accB
		if g == 0 {
			g = 1
		}
		if g > maxGenLen {
			g = maxGenLen
		}
	}
	t.nextGenEnd = now + sim.Time(g*genUnit)
}

// --- dynamic spill window (§IV-B2) ---

func (t *Tiny) sampledSet(llcSet int) bool {
	sets := t.env.LLC().Sets()
	// Sixteen sample sets per bank at full scale; never more than a
	// quarter of a small bank's sets (tests), and at least one.
	n := sampleSets
	if q := sets / 4; q < n {
		n = q
	}
	if n < 1 {
		n = 1
	}
	stride := sets / n
	return llcSet%stride == 0 && llcSet/stride < n
}

func (t *Tiny) windowLen() uint64 {
	if t.cfg.WindowAccesses > 0 {
		return t.cfg.WindowAccesses
	}
	return windowAccesses
}

func (t *Tiny) windowNote(addr uint64, llcHit, sharedRead bool) {
	set := t.env.LLC().SetIndex(addr)
	t.win.accesses++
	if sharedRead {
		t.win.sharedReads++
	}
	if t.sampledSet(set) {
		t.win.accSample++
		if !llcHit {
			t.win.missSample++
		}
	} else {
		t.win.accOther++
		if !llcHit {
			t.win.missOther++
		}
	}
	if t.win.accesses >= t.windowLen() {
		t.adaptSpill()
	}
}

func (t *Tiny) adaptSpill() {
	w := t.win
	t.win = winStats{}
	if w.accSample == 0 || w.accOther == 0 {
		return
	}
	mrNoSpill := float64(w.missSample) / float64(w.accSample)
	mrSpill := float64(w.missOther) / float64(w.accOther)
	mr := float64(w.missSample+w.missOther) / float64(w.accesses)
	stra := float64(w.sharedReads) / float64(w.accesses)
	// Tolerance per the §IV-B2 application classes.
	var delta float64
	switch {
	case mr >= 0.10 && stra >= 0.4:
		delta = 1.0 / 4 // class A
	case mr >= 0.10:
		delta = 1.0 / 32 // class B
	case stra >= 0.4:
		delta = 1.0 / 16 // class C
	default:
		delta = 1.0 / 32 // class D
	}
	if mrSpill <= mrNoSpill+delta {
		t.spillIdx--
	} else {
		t.spillIdx++
	}
	if t.spillIdx < 0 {
		t.spillIdx = 0
	}
	if t.spillIdx > 7 {
		t.spillIdx = 7
	}
}

// Metrics implements proto.Tracker.
func (t *Tiny) Metrics(m map[string]uint64) {
	m["tiny.hits"] += t.hits
	m["tiny.allocs"] += t.allocs
	m["tiny.evictions"] += t.evictions
	m["tiny.spills"] += t.spills
	m["tiny.spillSaved"] += t.spillSaved
	m["tiny.stateWrites"] += t.stateWrites
	m["tiny.spillIdxSum"] += uint64(t.spillIdx)
	for i := 1; i < NumCategories; i++ {
		m[accessCatKeys[i]] += t.catAccess[i]
	}
}
