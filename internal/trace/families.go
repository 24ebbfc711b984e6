package trace

// The specialized generator families. The classic model of trace.go
// reproduces the paper's 17 mixed applications; the families here are
// sharing-pattern extremes built so their defining property holds *by
// construction* — which is what makes them useful both as tracker
// stressors (migratory, falsely-shared and contended-hot-home traffic is
// exactly where a tiny directory's thesis is riskiest) and as
// property-test subjects (families_test.go pins each invariant across
// seeds):
//
//   - FamilyFalseSharing: distinct cores repeatedly touch *distinct
//     bytes* of the same 64-byte line. The machine model is
//     block-granular, so the byte offsets live here in the generator; a
//     measurement pass over the generated traces (Gen.Stats) reports the
//     per-line false-sharing census as trace.fs* metrics. Invariant: no
//     two cores ever claim the same byte offset within a line.
//   - FamilyLock: lock/barrier contention with configurable hot home
//     banks. Lock-line addresses are searched so their physical block
//     address homes on the banks of Profile.FamHomeBanks, concentrating
//     all acquire/release coherence traffic there. Invariant: every
//     lock-line access is a store, and an acquire...release burst touches
//     only that lock's critical-section blocks.
//   - FamilyRing: producer-consumer rings. Producer and consumer advance
//     in lockstep rounds with the consumer lagging half a ring, so the
//     producer's k-th write of a slot always precedes (in per-core
//     reference index) the consumer's k-th read of it. Invariant: FIFO
//     producer-before-consumer ordering per slot.
//   - FamilySteal: work stealing over migratory chunks. Chunk ownership
//     rotates deterministically every FamPhaseRefs references; only the
//     phase owner touches a chunk. Invariant: exactly one writer (and no
//     other toucher) per chunk per phase.
//   - FamilyMultiprog: a multi-program rate-mode mix — every core runs
//     its own program (footprints and issue rates varied per core) with
//     no data sharing except a read-only shared OS region (kernel code,
//     page tables). Invariant: the shared OS range is never written, and
//     private footprints stay core-disjoint.

import (
	"fmt"

	"tinydir/internal/bitvec"
)

// The family names accepted in Profile.Family.
const (
	FamilyFalseSharing = "false-sharing"
	FamilyLock         = "lock-contention"
	FamilyRing         = "producer-consumer"
	FamilySteal        = "work-stealing"
	FamilyMultiprog    = "multiprogram"
)

// famBase/famStride carve a virtual region for family structures,
// disjoint from the private, shared-group and code bases of trace.go.
// Unit u (line, lock, ring, chunk) owns [famBase+u*famStride, +famStride).
const (
	famBase   = uint64(1) << 44
	famStride = uint64(1) << 16
)

// lineBytes is the coherence granule the false-sharing family subdivides.
const lineBytes = 64

// ringRole is one ring membership of a core.
type ringRole struct {
	ring int
	prod bool
}

// famTables is the precomputed structure of one family instance. All
// addresses are virtual; g.phys applies the page hash at emission like
// the classic path, so tests may still disable translation.
type famTables struct {
	// false-sharing
	fsLineV   []uint64
	fsMembers [][]int // per line: member cores, in byte-range order
	fsSpan    int     // bytes claimed per member
	fsElig    [][]int // per core: eligible line indices
	// lock-contention
	lockV     []uint64   // lock-line virtual addrs (home-bank searched)
	critV     [][]uint64 // per lock: critical-section block addrs
	homeBanks []int
	// producer-consumer
	slotV              [][]uint64 // per ring: slot block addrs
	roles              [][]ringRole
	slots, lag, rounds int // rounds = refs per lockstep round
	// work-stealing
	chunkV [][]uint64 // per chunk: block addrs
	// multiprogram
	osV []uint64 // shared read-only OS blocks
}

// famInit builds the family tables on first use (lazy so noTranslate,
// which tests set after NewGen, is respected by the home-bank search).
func (g *Gen) famInit() *famTables {
	if g.fam != nil {
		return g.fam
	}
	f := &famTables{}
	switch g.p.Family {
	case FamilyFalseSharing:
		g.initFalseSharing(f)
	case FamilyLock:
		g.initLock(f)
	case FamilyRing:
		g.initRing(f)
	case FamilySteal:
		g.initSteal(f)
	case FamilyMultiprog:
		g.initMultiprog(f)
	default:
		panic(fmt.Sprintf("trace: unknown workload family %q", g.p.Family))
	}
	g.fam = f
	return f
}

// famMembers spreads k cores over a unit the way NewGen spreads sharer
// sets: an odd-stride walk from a unit-dependent start, so participation
// is even and every (unit, position) pair is deterministic.
func famMembers(unit, k, cores int) []int {
	if k > cores {
		k = cores
	}
	if k < 1 {
		k = 1
	}
	start := (unit * 7) % cores
	stride := 1 + 2*(unit%4)
	seen := make(map[int]bool, k)
	members := make([]int, 0, k)
	for j := 0; len(members) < k; j++ {
		c := (start + j*stride) % cores
		if !seen[c] {
			seen[c] = true
			members = append(members, c)
		}
	}
	return members
}

func (g *Gen) initFalseSharing(f *famTables) {
	p := g.p
	lines := p.FamUnits
	if lines <= 0 {
		lines = 64
	}
	span := p.FamSpan
	if span <= 0 {
		span = 1
	}
	if span > lineBytes {
		span = lineBytes
	}
	f.fsSpan = span
	// At most lineBytes/span cores fit a line with disjoint byte ranges;
	// member j claims bytes [j*span, (j+1)*span).
	per := lineBytes / span
	f.fsElig = make([][]int, g.cores)
	for l := 0; l < lines; l++ {
		f.fsLineV = append(f.fsLineV, famBase+uint64(l)*famStride)
		members := famMembers(l, per, g.cores)
		f.fsMembers = append(f.fsMembers, members)
		for _, c := range members {
			f.fsElig[c] = append(f.fsElig[c], l)
		}
	}
}

func (g *Gen) initLock(f *famTables) {
	p := g.p
	locks := p.FamUnits
	if locks <= 0 {
		locks = 8
	}
	span := p.FamSpan
	if span <= 0 {
		span = 16
	}
	f.homeBanks = append([]int(nil), p.FamHomeBanks...)
	if len(f.homeBanks) == 0 {
		f.homeBanks = []int{0}
	}
	for i, b := range f.homeBanks {
		f.homeBanks[i] = ((b % g.cores) + g.cores) % g.cores
	}
	for l := 0; l < locks; l++ {
		base := famBase + uint64(l)*famStride
		want := uint64(f.homeBanks[l%len(f.homeBanks)])
		// Home-bank search: the home of a block is phys % cores (see
		// system.bankOf), so walk candidates until one lands on the
		// wanted bank. Expected cores candidates; the half-stride cap
		// keeps the search out of the critical-section range below.
		addr := base
		for i := uint64(0); i < famStride/2; i++ {
			if g.phys(base+i)%uint64(g.cores) == want {
				addr = base + i
				break
			}
		}
		f.lockV = append(f.lockV, addr)
		crit := make([]uint64, span)
		for j := range crit {
			crit[j] = base + famStride/2 + uint64(j)
		}
		f.critV = append(f.critV, crit)
	}
}

func (g *Gen) initRing(f *famTables) {
	p := g.p
	rings := p.FamUnits
	if rings <= 0 {
		rings = max(g.cores/2, 1)
	}
	f.slots = p.FamSpan
	if f.slots <= 0 {
		f.slots = 16
	}
	f.lag = max(f.slots/2, 1)
	f.roles = make([][]ringRole, g.cores)
	for r := 0; r < rings; r++ {
		slots := make([]uint64, f.slots)
		for s := range slots {
			slots[s] = famBase + uint64(r)*famStride + uint64(s)
		}
		f.slotV = append(f.slotV, slots)
		prod := (2 * r) % g.cores
		cons := (2*r + 1) % g.cores
		f.roles[prod] = append(f.roles[prod], ringRole{ring: r, prod: true})
		f.roles[cons] = append(f.roles[cons], ringRole{ring: r, prod: false})
	}
	// Lockstep rounds: every core emits exactly `rounds` references per
	// round (its ring ops, then private fill), so "round t" spans the
	// same per-core index window [t*rounds, (t+1)*rounds) on every core.
	// The FIFO invariant follows: a slot's generation-k write happens a
	// full lag of rounds before its generation-k read.
	maxRoles := 1
	for _, ro := range f.roles {
		if len(ro) > maxRoles {
			maxRoles = len(ro)
		}
	}
	f.rounds = maxRoles + 1
	if p.SharedFrac > 0 {
		if n := int(float64(maxRoles) / p.SharedFrac); n > f.rounds {
			f.rounds = n
		}
	}
}

func (g *Gen) initSteal(f *famTables) {
	p := g.p
	chunks := p.FamUnits
	if chunks <= 0 {
		chunks = 2 * g.cores
	}
	span := p.FamSpan
	if span <= 0 {
		span = 8
	}
	for w := 0; w < chunks; w++ {
		blocks := make([]uint64, span)
		for j := range blocks {
			blocks[j] = famBase + uint64(w)*famStride + uint64(j)
		}
		f.chunkV = append(f.chunkV, blocks)
	}
}

func (g *Gen) initMultiprog(f *famTables) {
	n := g.p.FamSpan
	if n <= 0 {
		n = 256
	}
	for j := 0; j < n; j++ {
		f.osV = append(f.osV, famBase+uint64(j))
	}
}

// stealOwner is the owner of chunk w during phase t: a deterministic
// odd-stride rotation (coprime with the power-of-two core count), so
// every chunk visits every core and each (chunk, phase) has exactly one
// owner — the work-stealing invariant.
func stealOwner(w, t, cores int) int {
	return (w + t*(1+2*(w%4))) % cores
}

// stealPhaseRefs is the phase length in references.
func (p Profile) stealPhaseRefs() int {
	if p.FamPhaseRefs > 0 {
		return p.FamPhaseRefs
	}
	return 256
}

// privStream generates the classic private background traffic (reuse set
// + streaming overflow) the families interleave with their structured
// accesses.
type privStream struct {
	g         *Gen
	r         *rng
	base      uint64
	blocks    int
	stream    int
	reuse     float64
	writeFrac float64
	streamPos int
}

func (ps *privStream) ref(gap uint8) Ref {
	var addr uint64
	if ps.r.float() < ps.reuse || ps.stream == 0 {
		addr = ps.base + uint64(ps.r.intn(max(ps.blocks, 1)))
	} else {
		addr = ps.base + uint64(ps.blocks+ps.streamPos)
		ps.streamPos = (ps.streamPos + 1) % ps.stream
	}
	kind := Load
	if ps.r.float() < ps.writeFrac {
		kind = Store
	}
	return Ref{Addr: ps.g.phys(addr), Kind: kind, Gap: gap}
}

// familyTrace appends n references of core id for the profile's family to
// refs, which must be empty.
func (g *Gen) familyTrace(id, n int, refs []Ref) []Ref {
	f := g.famInit()
	p := g.p
	r := newRng(p.Seed*0x100003 + uint64(id)*0x9e37 + 1)
	gap := func() uint8 {
		if p.Gap <= 0 {
			return 1
		}
		v := p.Gap/2 + r.intn(p.Gap+1)
		if v > 255 {
			v = 255
		}
		return uint8(v)
	}
	ps := &privStream{
		g: g, r: r,
		base:   privBase + uint64(id)*privStride,
		blocks: p.PrivateBlocks, stream: p.StreamBlocks,
		reuse: p.PrivateReuse, writeFrac: p.WriteFrac,
	}
	if p.StreamBlocks > 0 {
		ps.streamPos = r.intn(p.StreamBlocks)
	}
	switch p.Family {
	case FamilyFalseSharing:
		for len(refs) < n {
			if elig := f.fsElig[id]; r.float() < p.SharedFrac && len(elig) > 0 {
				l := elig[r.intn(len(elig))]
				kind := Load
				if r.float() < p.SharedWriteFrac {
					kind = Store
				}
				refs = append(refs, Ref{Addr: g.phys(f.fsLineV[l]), Kind: kind, Gap: gap()})
			} else {
				refs = append(refs, ps.ref(gap()))
			}
		}
	case FamilyLock:
		for len(refs) < n {
			cs := 2 + r.intn(max(len(f.critV[0])/2, 1))
			// A burst only starts when it fits whole, so every acquire
			// has its release — the bracket invariant the property test
			// pins.
			if r.float() < p.SharedFrac && len(refs)+cs+2 <= n {
				l := r.intn(len(f.lockV))
				refs = append(refs, Ref{Addr: g.phys(f.lockV[l]), Kind: Store, Gap: gap()})
				for j := 0; j < cs; j++ {
					kind := Load
					if r.float() < p.SharedWriteFrac {
						kind = Store
					}
					addr := f.critV[l][r.intn(len(f.critV[l]))]
					refs = append(refs, Ref{Addr: g.phys(addr), Kind: kind, Gap: gap()})
				}
				refs = append(refs, Ref{Addr: g.phys(f.lockV[l]), Kind: Store, Gap: gap()})
			} else {
				refs = append(refs, ps.ref(gap()))
			}
		}
	case FamilyRing:
		for t := 0; len(refs) < n; t++ {
			start := len(refs)
			for _, ro := range f.roles[id] {
				if len(refs) >= n {
					break
				}
				switch {
				case ro.prod:
					slot := t % f.slots
					refs = append(refs, Ref{Addr: g.phys(f.slotV[ro.ring][slot]), Kind: Store, Gap: gap()})
				case t >= f.lag:
					slot := (t - f.lag) % f.slots
					refs = append(refs, Ref{Addr: g.phys(f.slotV[ro.ring][slot]), Kind: Load, Gap: gap()})
				default:
					// The consumer idles until the producer is a lag
					// ahead — the pipe is still filling.
					refs = append(refs, ps.ref(gap()))
				}
			}
			for len(refs)-start < f.rounds && len(refs) < n {
				refs = append(refs, ps.ref(gap()))
			}
		}
	case FamilySteal:
		phaseRefs := p.stealPhaseRefs()
		phase := -1
		var owned []int
		for len(refs) < n {
			if t := len(refs) / phaseRefs; t != phase {
				phase = t
				owned = owned[:0]
				for w := range f.chunkV {
					if stealOwner(w, t, g.cores) == id {
						owned = append(owned, w)
					}
				}
			}
			if r.float() < p.SharedFrac && len(owned) > 0 {
				w := owned[r.intn(len(owned))]
				kind := Load
				if r.float() < p.SharedWriteFrac {
					kind = Store
				}
				addr := f.chunkV[w][r.intn(len(f.chunkV[w]))]
				refs = append(refs, Ref{Addr: g.phys(addr), Kind: kind, Gap: gap()})
			} else {
				refs = append(refs, ps.ref(gap()))
			}
		}
	case FamilyMultiprog:
		// Rate-mode heterogeneity: each core is its own program, with
		// footprint and issue rate varied deterministically by id.
		ps.blocks = max(1, p.PrivateBlocks*(2+id%3)/2)
		ps.reuse = p.PrivateReuse - 0.05*float64(id%4)
		progGap := func() uint8 {
			mean := p.Gap + id%4
			if mean <= 0 {
				return 1
			}
			v := mean/2 + r.intn(mean+1)
			if v > 255 {
				v = 255
			}
			return uint8(v)
		}
		for len(refs) < n {
			if r.float() < p.SharedFrac && len(f.osV) > 0 {
				// Shared OS pages are read-only by construction: kernel
				// code fetches and page-table walks, never stores.
				kind := Load
				if r.float() < 0.5 {
					kind = Ifetch
				}
				addr := f.osV[r.intn(len(f.osV))]
				refs = append(refs, Ref{Addr: g.phys(addr), Kind: kind, Gap: progGap()})
			} else {
				refs = append(refs, ps.ref(progGap()))
			}
		}
	}
	return refs
}

// measure runs the per-family measurement pass over freshly generated
// traces. Only the false-sharing family defines one today: a per-line
// false-sharing census in the spirit of a byte-granular detector —
// a line is falsely shared when at least two cores touched it, at least
// one of them wrote, and their claimed byte ranges do not overlap (which
// the generator guarantees, and the detector verifies rather than
// assumes). Each line's set of touching cores is an inline bitvec.Vec,
// so the traces may come from at most bitvec.MaxBits cores, the
// simulator's limit.
func (g *Gen) measure(traces [][]Ref) map[string]uint64 {
	if g.p.Family != FamilyFalseSharing {
		return nil
	}
	f := g.famInit()
	physLine := make(map[uint64]int, len(f.fsLineV))
	for l, v := range f.fsLineV {
		physLine[g.phys(v)] = l
	}
	type census struct {
		cores  bitvec.Vec
		refs   uint64
		stores uint64
	}
	lines := make([]census, len(f.fsLineV))
	for l := range lines {
		lines[l].cores = bitvec.New(len(traces))
	}
	for c, refs := range traces {
		for _, r := range refs {
			l, ok := physLine[r.Addr]
			if !ok {
				continue
			}
			cs := &lines[l]
			cs.cores.Set(c)
			cs.refs++
			if r.Kind == Store {
				cs.stores++
			}
		}
	}
	var touched, shared, falsely, fsRefs, fsStores uint64
	for l := range lines {
		cs := &lines[l]
		if cs.refs == 0 {
			continue
		}
		touched++
		if cs.cores.Count() < 2 {
			continue
		}
		shared++
		if cs.stores == 0 {
			continue
		}
		if fsBytesOverlap(f, l, cs.cores) {
			continue // true sharing: some byte is shared — not this family's doing
		}
		falsely++
		fsRefs += cs.refs
		fsStores += cs.stores
	}
	return map[string]uint64{
		"trace.fsLinesTouched": touched,
		"trace.fsLinesShared":  shared,
		"trace.fsLinesFalse":   falsely,
		"trace.fsRefs":         fsRefs,
		"trace.fsStores":       fsStores,
	}
}

// fsBytesOverlap reports whether any two of the given cores claim
// overlapping byte ranges within line l. The generator's disjoint
// assignment makes this false; the detector checks anyway.
func fsBytesOverlap(f *famTables, l int, cores bitvec.Vec) bool {
	var used [lineBytes]bool
	for j, c := range f.fsMembers[l] {
		if !cores.Test(c) {
			continue
		}
		for b := j * f.fsSpan; b < (j+1)*f.fsSpan; b++ {
			if used[b] {
				return true
			}
			used[b] = true
		}
	}
	return false
}
