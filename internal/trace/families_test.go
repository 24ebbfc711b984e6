package trace

import "testing"

// famSeeds are the seeds every family invariant is checked across (≥8,
// plus each reference profile's own seed via famProfile).
var famSeeds = []uint64{1, 2, 3, 5, 7, 11, 42, 9001}

// famProfile returns the reference profile of the named family with the
// given seed substituted.
func famProfile(t *testing.T, name string, seed uint64) Profile {
	t.Helper()
	p, ok := AppByName(name)
	if !ok {
		t.Fatalf("family profile %q not found", name)
	}
	p.Seed = seed
	return p
}

// famUnit decodes a virtual family address into (unit, offset), valid
// only under noTranslate.
func famUnit(addr uint64) (int, uint64) {
	return int((addr - famBase) / famStride), (addr - famBase) % famStride
}

func inFamRange(addr uint64) bool {
	return addr >= famBase && addr < famBase+uint64(1)<<20*famStride
}

// TestFalseSharingDisjointBytes pins the false-sharing invariant: no two
// cores that touch the same line claim overlapping byte offsets.
func TestFalseSharingDisjointBytes(t *testing.T) {
	for _, seed := range famSeeds {
		p := famProfile(t, "falseshare", seed)
		const cores = 16
		g := NewGen(p, cores)
		g.noTranslate = true
		traces := g.Traces(2000)
		touched := map[int]map[int]bool{} // line -> cores
		famRefs := 0
		for c, refs := range traces {
			for _, r := range refs {
				if !inFamRange(r.Addr) {
					continue
				}
				l, off := famUnit(r.Addr)
				if off != 0 {
					t.Fatalf("seed %d: false-sharing ref off line base: %#x", seed, r.Addr)
				}
				if touched[l] == nil {
					touched[l] = map[int]bool{}
				}
				touched[l][c] = true
				famRefs++
			}
		}
		if famRefs == 0 {
			t.Fatalf("seed %d: no false-sharing traffic generated", seed)
		}
		sharedLines := 0
		for l, cs := range touched {
			if len(cs) > 1 {
				sharedLines++
			}
			var used [lineBytes]bool
			for c := range cs {
				lo, hi, ok := g.fsByteRange(l, c)
				if !ok {
					t.Fatalf("seed %d: core %d touched line %d without membership", seed, c, l)
				}
				for b := lo; b < hi; b++ {
					if used[b] {
						t.Fatalf("seed %d: line %d byte %d claimed by two cores", seed, l, b)
					}
					used[b] = true
				}
			}
		}
		if sharedLines == 0 {
			t.Fatalf("seed %d: no line touched by more than one core", seed)
		}
	}
}

// TestFalseSharingStats pins the generator-side census: Traces must
// surface the trace.fs* metrics, the falsely-shared count must match an
// independent recount, and no line may be classified as truly shared
// (the byte assignment is disjoint by construction).
func TestFalseSharingStats(t *testing.T) {
	for _, seed := range famSeeds {
		p := famProfile(t, "falseshare", seed)
		g := NewGen(p, 16)
		g.Traces(2000)
		st := g.Stats()
		if st == nil {
			t.Fatalf("seed %d: no stats after Traces", seed)
		}
		if st["trace.fsLinesTouched"] == 0 || st["trace.fsRefs"] == 0 {
			t.Fatalf("seed %d: empty census: %v", seed, st)
		}
		if st["trace.fsLinesFalse"] != st["trace.fsLinesShared"] {
			t.Fatalf("seed %d: %d shared lines but only %d falsely shared — generator leaked true sharing",
				seed, st["trace.fsLinesShared"], st["trace.fsLinesFalse"])
		}
		if st["trace.fsStores"] == 0 {
			t.Fatalf("seed %d: falsely-shared lines carry no stores", seed)
		}
	}
}

// TestLockBurstStructure pins the lock-contention invariants: lock-line
// accesses are always stores, and every acquire...release burst touches
// only that lock's critical-section blocks.
func TestLockBurstStructure(t *testing.T) {
	for _, seed := range famSeeds {
		p := famProfile(t, "lockhome", seed)
		g := NewGen(p, 8)
		g.noTranslate = true
		f := g.famInit()
		lockOf := map[uint64]int{}
		for l, a := range f.lockV {
			lockOf[a] = l
		}
		critOf := map[uint64]int{}
		for l, blocks := range f.critV {
			for _, a := range blocks {
				critOf[a] = l
			}
		}
		bursts := 0
		for c, refs := range g.Traces(3000) {
			inLock := -1
			for i, r := range refs {
				if l, ok := lockOf[r.Addr]; ok {
					if r.Kind != Store {
						t.Fatalf("seed %d core %d ref %d: lock access is not a store", seed, c, i)
					}
					if inLock == -1 {
						inLock = l // acquire
					} else if inLock == l {
						inLock = -1 // release
						bursts++
					} else {
						t.Fatalf("seed %d core %d ref %d: lock %d inside lock %d burst", seed, c, i, l, inLock)
					}
					continue
				}
				l, isCrit := critOf[r.Addr]
				if inLock >= 0 && (!isCrit || l != inLock) {
					t.Fatalf("seed %d core %d ref %d: non-critical access %#x inside lock %d burst",
						seed, c, i, r.Addr, inLock)
				}
				if inLock == -1 && isCrit {
					t.Fatalf("seed %d core %d ref %d: critical block touched outside a burst", seed, c, i)
				}
			}
			if inLock != -1 {
				t.Fatalf("seed %d core %d: trace ends inside lock %d burst", seed, c, inLock)
			}
		}
		if bursts == 0 {
			t.Fatalf("seed %d: no lock bursts generated", seed)
		}
	}
}

// TestLockHomeBanks pins the hot-home property: every lock line's
// physical block address homes on one of the profile's FamHomeBanks
// (home bank = phys % cores, see system.bankOf).
func TestLockHomeBanks(t *testing.T) {
	for _, seed := range famSeeds {
		for _, cores := range []int{8, 64} {
			p := famProfile(t, "lockhome", seed)
			g := NewGen(p, cores)
			f := g.famInit()
			want := map[uint64]bool{}
			for _, b := range f.homeBanks {
				want[uint64(b)] = true
			}
			for l, a := range f.lockV {
				if !want[a%uint64(cores)] {
					t.Fatalf("seed %d cores %d: lock %d homes on bank %d, want one of %v",
						seed, cores, l, a%uint64(cores), f.homeBanks)
				}
			}
		}
	}
}

// TestRingFIFO pins the producer-consumer invariant: for every ring
// slot, the producer's k-th write precedes the consumer's k-th read in
// per-core reference index (sound because rings run in lockstep rounds
// of equal per-core length).
func TestRingFIFO(t *testing.T) {
	for _, seed := range famSeeds {
		p := famProfile(t, "ringbuf", seed)
		const cores = 16
		g := NewGen(p, cores)
		g.noTranslate = true
		traces := g.Traces(2500)
		type slotKey struct{ ring, slot int }
		writes := map[slotKey][]int{}
		reads := map[slotKey][]int{}
		for _, refs := range traces {
			for i, r := range refs {
				if !inFamRange(r.Addr) {
					continue
				}
				ring, slot := famUnit(r.Addr)
				k := slotKey{ring, int(slot)}
				if r.Kind == Store {
					writes[k] = append(writes[k], i)
				} else {
					reads[k] = append(reads[k], i)
				}
			}
		}
		if len(writes) == 0 || len(reads) == 0 {
			t.Fatalf("seed %d: ring traffic missing (writes %d, reads %d)", seed, len(writes), len(reads))
		}
		for k, rd := range reads {
			wr := writes[k]
			if len(rd) > len(wr) {
				t.Fatalf("seed %d ring %d slot %d: %d reads but only %d writes",
					seed, k.ring, k.slot, len(rd), len(wr))
			}
			for i := range rd {
				if wr[i] >= rd[i] {
					t.Fatalf("seed %d ring %d slot %d: read %d at index %d not after write at %d",
						seed, k.ring, k.slot, i, rd[i], wr[i])
				}
			}
		}
	}
}

// TestStealOneWriterPerPhase pins the work-stealing invariant: within a
// phase, each migratory chunk is touched — let alone written — by
// exactly its one rotating owner.
func TestStealOneWriterPerPhase(t *testing.T) {
	for _, seed := range famSeeds {
		p := famProfile(t, "worksteal", seed)
		const cores = 16
		g := NewGen(p, cores)
		g.noTranslate = true
		traces := g.Traces(2000)
		phaseRefs := p.stealPhaseRefs()
		type phaseKey struct{ chunk, phase int }
		touchers := map[phaseKey]map[int]bool{}
		writers := map[phaseKey]map[int]bool{}
		for c, refs := range traces {
			for i, r := range refs {
				if !inFamRange(r.Addr) {
					continue
				}
				w, _ := famUnit(r.Addr)
				k := phaseKey{w, i / phaseRefs}
				if touchers[k] == nil {
					touchers[k] = map[int]bool{}
					writers[k] = map[int]bool{}
				}
				touchers[k][c] = true
				if r.Kind == Store {
					writers[k][c] = true
				}
			}
		}
		if len(writers) == 0 {
			t.Fatalf("seed %d: no migratory traffic generated", seed)
		}
		migrated := false
		owner0 := map[int]int{}
		for k, cs := range touchers {
			own := stealOwner(k.chunk, k.phase, cores)
			for c := range cs {
				if c != own {
					t.Fatalf("seed %d: chunk %d phase %d touched by core %d, owner is %d",
						seed, k.chunk, k.phase, c, own)
				}
			}
			if len(writers[k]) > 1 {
				t.Fatalf("seed %d: chunk %d phase %d has %d writers", seed, k.chunk, k.phase, len(writers[k]))
			}
			if prev, ok := owner0[k.chunk]; ok && prev != own {
				migrated = true
			} else if !ok {
				owner0[k.chunk] = own
			}
		}
		if !migrated {
			t.Fatalf("seed %d: no chunk ever changed owner — nothing migratory about this", seed)
		}
	}
}

// TestMultiprogIsolation pins the multi-program invariants: the shared
// OS region is never written (loads and ifetches only), and private
// footprints stay within each core's own window.
func TestMultiprogIsolation(t *testing.T) {
	for _, seed := range famSeeds {
		p := famProfile(t, "multiprog", seed)
		const cores = 16
		g := NewGen(p, cores)
		g.noTranslate = true
		osRefs := 0
		for c, refs := range g.Traces(2000) {
			lo := privBase + uint64(c)*privStride
			hi := lo + privStride
			for i, r := range refs {
				switch {
				case inFamRange(r.Addr):
					osRefs++
					if r.Kind == Store {
						t.Fatalf("seed %d core %d ref %d: store to shared OS region", seed, c, i)
					}
				case r.Addr >= lo && r.Addr < hi:
					// own private window — fine
				default:
					t.Fatalf("seed %d core %d ref %d: address %#x outside own footprint", seed, c, i, r.Addr)
				}
			}
		}
		if osRefs == 0 {
			t.Fatalf("seed %d: no shared OS traffic generated", seed)
		}
	}
}

// TestFamilyDeterminism pins reproducibility: two generators with the
// same profile and core count emit identical traces and stats for every
// family.
func TestFamilyDeterminism(t *testing.T) {
	for _, fp := range FamilyApps() {
		g1 := NewGen(fp, 8)
		g2 := NewGen(fp, 8)
		a := g1.Traces(800)
		b := g2.Traces(800)
		for c := range a {
			for i := range a[c] {
				if a[c][i] != b[c][i] {
					t.Fatalf("%s: core %d ref %d differs", fp.Name, c, i)
				}
			}
		}
		s1, s2 := g1.Stats(), g2.Stats()
		if len(s1) != len(s2) {
			t.Fatalf("%s: stats differ", fp.Name)
		}
		for k, v := range s1 {
			if s2[k] != v {
				t.Fatalf("%s: stat %s differs: %d vs %d", fp.Name, k, v, s2[k])
			}
		}
	}
}

// TestFamilySeedsDiffer guards against a family ignoring its seed.
func TestFamilySeedsDiffer(t *testing.T) {
	for _, fp := range FamilyApps() {
		p2 := fp
		p2.Seed = fp.Seed + 1
		a := NewGen(fp, 8).CoreTrace(0, 500)
		b := NewGen(p2, 8).CoreTrace(0, 500)
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: seed change did not alter the trace", fp.Name)
		}
	}
}

// fsByteRange returns the byte range [lo, hi) core c claims within line
// l, or ok=false when c is not a member.
func (g *Gen) fsByteRange(l, c int) (lo, hi int, ok bool) {
	f := g.famInit()
	for j, m := range f.fsMembers[l] {
		if m == c {
			return j * f.fsSpan, (j + 1) * f.fsSpan, true
		}
	}
	return 0, 0, false
}
