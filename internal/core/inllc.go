package core

import (
	"tinydir/internal/freelist"
	"tinydir/internal/proto"
)

// InLLC implements §III: there is no sparse directory at all. While a
// block has an owner or sharers, its LLC line enters the corrupted state
// (V=0, D=1 of Table III) and the first 4+ceil(log2 C) or 4+C bits of the
// data block hold the extended state of Table IV. Consequences modeled:
//
//   - a read to a corrupted-shared block cannot be answered from the LLC
//     (the data bits are corrupted), so it is forwarded to an elected
//     sharer: three hops instead of two;
//   - corrupted lines cost extra decode latency at the bank (§IV-C);
//   - eviction notices for E-state blocks, and the last S-state sharer's
//     notice, trigger a small reconstruction-bits transfer to the home;
//   - evicting a corrupted LLC line back-invalidates the holders;
//   - every coherence-state change writes the LLC data array (energy).
//
// With TagExtended set, the storage-heavy variant of Fig. 4 is modeled
// instead: every LLC tag is widened to hold the full tracking state, so
// the LLC data stays usable (two-hop shared reads) and no reconstruction
// traffic or decode penalty arises.
type InLLC struct {
	env proto.BankEnv
	// TagExtended selects the storage-heavy variant (left bars, Fig. 4).
	TagExtended bool

	stateWrites uint64
	reconMsgs   uint64
	// catAccess[i] counts shared reads that could not be supplied by the
	// LLC, by the block's STRA category at access time (Fig. 9).
	catAccess [NumCategories]uint64
	// catBlocks[i] counts block residencies by final STRA category
	// (Fig. 8); only categories >= 1 are reported.
	catBlocks [NumCategories]uint64

	// reconBuf and victimBuf back the one-element lists of returned
	// Effects: a Commit reconstructs at most one block and an LLC victim
	// back-invalidates at most one, and the bank consumes each Effects
	// before its next call (see effectsBuf).
	reconBuf  []int
	victimBuf []proto.Victim
}

// inllcList holds released in-LLC trackers for the next machine's banks.
var inllcList freelist.List[*InLLC]

// NewInLLC returns the §III tracker, on a released one when there is one
// (only buffer capacity carries over). tagExtended selects the
// storage-heavy variant.
func NewInLLC(tagExtended bool) *InLLC {
	t, ok := inllcList.Get()
	if !ok {
		t = new(InLLC)
	}
	*t = InLLC{TagExtended: tagExtended, reconBuf: t.reconBuf[:0], victimBuf: t.victimBuf[:0]}
	return t
}

// Name implements proto.Tracker.
func (t *InLLC) Name() string {
	if t.TagExtended {
		return "inllc-tagext"
	}
	return "inllc"
}

// Attach implements proto.Tracker.
func (t *InLLC) Attach(env proto.BankEnv) { t.env = env }

// Begin implements proto.Tracker.
func (t *InLLC) Begin(addr uint64, kind proto.ReqKind, llcHit bool) proto.View {
	v := proto.View{SupplyFromLLC: true}
	l := t.env.LLC().Lookup(addr)
	if l == nil || !t.tracked(l) {
		return v
	}
	v.E = l.Meta.Track
	if !t.TagExtended {
		switch v.E.State {
		case proto.Shared:
			v.SupplyFromLLC = false
			v.ExtraLatency = 1 // serial tag+data read plus state decode
		case proto.Exclusive:
			v.ExtraLatency = 3 // data access (2 cycles) + decode (1 cycle)
		}
	}
	if !kind.IsEvict() {
		if kind.IsRead() && v.E.State == proto.Shared {
			NoteSharedRead(&l.Meta.STRAC, &l.Meta.OAC)
			if !v.SupplyFromLLC {
				t.catAccess[Category(l.Meta.STRAC, l.Meta.OAC)]++
			}
		} else {
			NoteOther(&l.Meta.STRAC, &l.Meta.OAC)
		}
	}
	return v
}

func (t *InLLC) tracked(l *proto.LLCLine) bool {
	if t.TagExtended {
		return l.Meta.Track.State != proto.Unowned
	}
	return l.Meta.Corrupted
}

// Commit implements proto.Tracker.
func (t *InLLC) Commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry) proto.Effects {
	var eff proto.Effects
	l := t.env.LLC().Lookup(addr)
	if next.State == proto.Unowned {
		if l != nil && t.tracked(l) {
			if !t.TagExtended {
				// The block must be reconstructed: PutE notices carry the
				// borrowed bits, and the last S sharer is asked for them
				// via a special eviction acknowledgement. PutM carries the
				// whole block anyway.
				if kind == proto.PutE || kind == proto.PutS {
					t.reconBuf = append(t.reconBuf[:0], from)
					eff.ReconFromCores = t.reconBuf
					t.reconMsgs++
				}
				eff.LLCStateWrites++
				t.stateWrites++
			}
			t.retireBlockStats(l)
			l.Meta.Corrupted = false
			l.Meta.Track = proto.Entry{}
			l.Meta.STRAC, l.Meta.OAC = 0, 0
		}
		return eff
	}
	if l == nil {
		// The bank guarantees LLC residency for tracked blocks; reaching
		// here would silently lose coherence state.
		panic("inllc: commit without an LLC line")
	}
	if t.TagExtended {
		l.Meta.Track = next
		return eff
	}
	l.Meta.Corrupted = true
	l.Meta.Track = next
	eff.LLCStateWrites++
	t.stateWrites++
	return eff
}

// OnLLCVictim implements proto.Tracker.
func (t *InLLC) OnLLCVictim(l *proto.LLCLine) proto.Effects {
	var eff proto.Effects
	if t.tracked(l) {
		// Reconstruct-and-invalidate: all private copies die with the line.
		t.victimBuf = append(t.victimBuf[:0], proto.Victim{Addr: l.Addr, E: l.Meta.Track})
		eff.BackInvals = t.victimBuf
		t.retireBlockStats(l)
	}
	return eff
}

func (t *InLLC) retireBlockStats(l *proto.LLCLine) {
	if c := Category(l.Meta.STRAC, l.Meta.OAC); c > 0 {
		t.catBlocks[c]++
	}
}

// Lookup implements proto.Tracker.
func (t *InLLC) Lookup(addr uint64) (proto.Entry, bool) {
	l := t.env.LLC().Lookup(addr)
	if l == nil || !t.tracked(l) {
		return proto.Entry{}, false
	}
	return l.Meta.Track, true
}

// ReleaseStorage implements proto.Tracker: the tracking state lives in
// the LLC, so only the tracker itself goes back to its free list; it is
// unusable afterwards.
func (t *InLLC) ReleaseStorage() { inllcList.Put(t) }

// Metrics implements proto.Tracker.
func (t *InLLC) Metrics(m map[string]uint64) {
	m["inllc.stateWrites"] += t.stateWrites
	m["inllc.reconMsgs"] += t.reconMsgs
	for i := 1; i < NumCategories; i++ {
		m[accessCatKeys[i]] += t.catAccess[i]
		m[blockCatKeys[i]] += t.catBlocks[i]
	}
}

// accessCatKeys and blockCatKeys are the per-category metric names
// ("stra.accessCat1", ...), built once instead of per bank per run.
var (
	accessCatKeys = catKeys("stra.accessCat")
	blockCatKeys  = catKeys("stra.blockCat")
)

func catKeys(prefix string) [NumCategories]string {
	var k [NumCategories]string
	for i := range k {
		k[i] = prefix + string(rune('0'+i))
	}
	return k
}
