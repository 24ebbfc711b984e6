// Package trace generates the synthetic multi-threaded memory traces that
// stand in for the paper's PIN traces of 17 applications (see DESIGN.md §4
// for why the substitution preserves the studied behaviour). Each
// application is a Profile parameterizing private working set, streaming
// footprint, shared-group structure (sharer-set sizes for the Fig. 2
// bins), read/write mix and code-sharing intensity. Generation is fully
// deterministic for a given profile and core count.
package trace

// Kind is the access type of a reference.
type Kind uint8

const (
	// Load is a data read.
	Load Kind = iota
	// Store is a data write.
	Store
	// Ifetch is an instruction fetch (always granted shared).
	Ifetch
)

// Ref is one memory reference of a core's trace: a 64-byte-block address,
// the access kind, and the number of non-memory instructions (cycles at
// IPC 1) executed since the previous reference.
type Ref struct {
	Addr uint64
	Kind Kind
	Gap  uint8
}

// Address-space bases (virtual block addresses, disjoint by
// construction).
const (
	privBase    = uint64(1) << 30
	privStride  = uint64(1) << 20
	sharedBase  = uint64(1) << 40
	groupStride = uint64(1) << 16
	codeBase    = uint64(1) << 50
)

// pageBlocks is the translation grain: 4 KB pages of 64-byte blocks.
const pageBlocks = 64

// translate maps a virtual block address to a pseudo-physical one by
// hashing the page number into a 2^34-page physical space, mimicking OS
// page allocation. Without this, the generator's large power-of-two
// region alignments would alias pathologically in the set-indexed
// directory slices, LLC banks, and DRAM banks — something no real system
// exhibits. The mapping is a fixed function, so every run and every core
// sees the same frame for a given page.
func translate(vaddr uint64) uint64 {
	page := vaddr / pageBlocks
	s := page
	frame := splitmix(&s) & (1<<34 - 1)
	return frame*pageBlocks + vaddr%pageBlocks
}

func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SharedGroup describes one family of shared regions: Count regions of
// Blocks blocks each, every region shared by Sharers cores, selected with
// the given weight relative to the profile's other groups.
type SharedGroup struct {
	Count   int
	Blocks  int
	Sharers int
	Weight  float64
}

// Profile is a synthetic application model.
type Profile struct {
	Name string
	// Private working set per core (blocks) and its reuse probability;
	// the remainder of private accesses stream through StreamBlocks.
	PrivateBlocks int
	PrivateReuse  float64
	StreamBlocks  int
	// SharedFrac of all references touch shared data, distributed over
	// Groups; SharedWriteFrac of those are stores (low values produce
	// high STRA ratios).
	SharedFrac      float64
	SharedWriteFrac float64
	Groups          []SharedGroup
	// HotFrac of shared accesses hit the first HotBlocks of the chosen
	// region, concentrating STRA traffic on few blocks (Figs. 8/9).
	HotFrac   float64
	HotBlocks int
	// CodeFrac of references are instruction fetches into a shared code
	// footprint of CodeBlocks.
	CodeFrac   float64
	CodeBlocks int
	// WriteFrac of private data accesses are stores.
	WriteFrac float64
	// Gap is the mean non-memory instruction count between references.
	Gap int
	// PhaseRefs, when non-zero, rotates each group's hot subset every
	// PhaseRefs references: the phase behaviour real applications show,
	// which leaves dead entries behind in the tiny directory for the
	// gNRU policy to reclaim (Figs. 16-18). 0 = stationary.
	PhaseRefs int
	// Family selects a specialized generator family instead of the
	// classic mixed model above ("" = classic). Each family reuses
	// SharedFrac (fraction of references hitting the family structure),
	// SharedWriteFrac, WriteFrac, Gap and the private-footprint fields
	// for its background traffic, and interprets the Fam* knobs below;
	// see families.go for the per-family semantics and invariants.
	Family string
	// FamUnits counts the family's contended units: falsely-shared
	// lines, locks, rings, or migratory chunks (0 = family default).
	FamUnits int
	// FamSpan is the per-unit extent: bytes claimed per core within a
	// falsely-shared line, critical-section blocks per lock, slots per
	// ring, blocks per migratory chunk, or shared-OS blocks for the
	// multiprogram family (0 = family default).
	FamSpan int
	// FamHomeBanks pins the home banks of the lock-contention family's
	// lock lines (addresses are chosen so each lock's physical block
	// address homes on one of these banks). Empty = bank 0.
	FamHomeBanks []int
	// FamPhaseRefs is the per-phase reference count of the work-stealing
	// family (chunk ownership rotates every phase; 0 = 256).
	FamPhaseRefs int
	// Seed makes the trace deterministic and distinct per app.
	Seed uint64
}

// rng is xorshift64*, small and deterministic.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// groupInstance is one concrete shared region with its sharer set.
type groupInstance struct {
	base    uint64
	blocks  int
	sharers []int
	weight  float64
}

// Gen generates per-core traces for a profile.
type Gen struct {
	p     Profile
	cores int
	// noTranslate disables the virtual-to-physical page hash (used by
	// tests that assert on the virtual layout).
	noTranslate bool
	groups      []groupInstance
	// eligible[eligOff[i]:eligOff[i+1]] lists the group indices core i
	// participates in, ascending, and cumW the same range's cumulative
	// weights for sampling.
	eligible []int
	cumW     []float64
	eligOff  []int
	// fam holds the specialized family tables (lazily built so tests may
	// flip noTranslate after NewGen); stats holds the generator-side
	// trace.* measurements of the last Traces call.
	fam   *famTables
	stats map[string]uint64
}

// NewGen prepares a generator for the given core count. Sharer sets are
// assigned deterministically: group k of size s covers cores
// (k*7+j) mod cores for j in 0..s-1, spreading participation evenly.
func NewGen(p Profile, cores int) *Gen {
	g := &Gen{p: p, cores: cores}
	groupSize := func(sg SharedGroup) int { return min(max(sg.Sharers, 1), cores) }
	var instances, total int
	for _, sg := range p.Groups {
		instances += sg.Count
		total += sg.Count * groupSize(sg)
	}
	// Every instance's sharer list is carved from one backing array; the
	// full slice expression caps each so no append can run into the next.
	backing := make([]int, 0, total)
	g.groups = make([]groupInstance, 0, instances)
	seen := make([]bool, cores)
	idx := 0
	for _, sg := range p.Groups {
		n := groupSize(sg)
		for c := 0; c < sg.Count; c++ {
			start := (idx * 7) % cores
			// Odd stride: coprime with the power-of-two core count, so
			// the walk visits every core.
			stride := 1 + 2*(idx%4)
			first := len(backing)
			for j := 0; len(backing)-first < n; j++ {
				core := (start + j*stride) % cores
				if !seen[core] {
					seen[core] = true
					backing = append(backing, core)
				}
			}
			sharers := backing[first:len(backing):len(backing)]
			for _, core := range sharers {
				seen[core] = false
			}
			g.groups = append(g.groups, groupInstance{
				base:    sharedBase + uint64(idx)*groupStride,
				blocks:  sg.Blocks,
				sharers: sharers,
				weight:  sg.Weight,
			})
			idx++
		}
	}
	// Counting sort of (core, group) pairs by core keeps each core's
	// groups in ascending index order.
	g.eligOff = make([]int, cores+1)
	for _, inst := range g.groups {
		for _, c := range inst.sharers {
			g.eligOff[c+1]++
		}
	}
	for c := 0; c < cores; c++ {
		g.eligOff[c+1] += g.eligOff[c]
	}
	g.eligible = make([]int, total)
	next := append([]int(nil), g.eligOff[:cores]...)
	for gi, inst := range g.groups {
		for _, c := range inst.sharers {
			g.eligible[next[c]] = gi
			next[c]++
		}
	}
	g.cumW = make([]float64, total)
	for c := 0; c < cores; c++ {
		sum := 0.0
		for i := g.eligOff[c]; i < g.eligOff[c+1]; i++ {
			sum += g.groups[g.eligible[i]].weight
			g.cumW[i] = sum
		}
	}
	return g
}

// Groups returns the number of shared-region instances.
func (g *Gen) Groups() int { return len(g.groups) }

// CoreTrace generates n references for core id.
func (g *Gen) CoreTrace(id, n int) []Ref { return g.coreTrace(id, n, make([]Ref, 0, n)) }

// coreTrace appends core id's n references to refs, which must be empty.
func (g *Gen) coreTrace(id, n int, refs []Ref) []Ref {
	if g.p.Family != "" {
		return g.familyTrace(id, n, refs)
	}
	p := g.p
	r := newRng(p.Seed*0x100003 + uint64(id)*0x9e37 + 1)
	streamPos := r.intn(max(p.StreamBlocks, 1))
	privBaseAddr := privBase + uint64(id)*privStride
	gap := func() uint8 {
		if p.Gap <= 0 {
			return 1
		}
		// Geometric-ish jitter around the mean.
		v := p.Gap/2 + r.intn(p.Gap+1)
		if v > 255 {
			v = 255
		}
		return uint8(v)
	}
	for len(refs) < n {
		x := r.float()
		switch {
		case x < p.CodeFrac && p.CodeBlocks > 0:
			// Shared code: sequential-ish fetch with jumps.
			addr := codeBase + uint64(r.intn(p.CodeBlocks))
			refs = append(refs, Ref{Addr: g.phys(addr), Kind: Ifetch, Gap: gap()})
		case x < p.CodeFrac+p.SharedFrac && g.eligOff[id+1] > g.eligOff[id]:
			gi := g.pickGroup(id, r)
			inst := g.groups[gi]
			var addr uint64
			if p.HotFrac > 0 && r.float() < p.HotFrac {
				hot := min(max(p.HotBlocks, 1), inst.blocks)
				start := 0
				if p.PhaseRefs > 0 {
					// All cores advance phases together (reference index
					// approximates time), sliding the hot window through
					// the region so earlier hot blocks go dead.
					phase := len(refs) / p.PhaseRefs
					start = (phase * hot) % inst.blocks
				}
				// Zipf-like concentration inside the hot window: half of
				// the hot accesses land on a super-hot head. This is the
				// skew behind the paper's Figs. 8/9 (few C7 blocks soak
				// up most shared reads) and what makes a tiny directory
				// sufficient for the critical subset.
				span := hot
				if super := min(8, hot); r.float() < 0.5 {
					span = super
				}
				addr = inst.base + uint64((start+r.intn(span))%inst.blocks)
			} else {
				addr = inst.base + uint64(r.intn(inst.blocks))
			}
			kind := Load
			if r.float() < p.SharedWriteFrac {
				kind = Store
			}
			refs = append(refs, Ref{Addr: g.phys(addr), Kind: kind, Gap: gap()})
		default:
			// Private data.
			var addr uint64
			if r.float() < p.PrivateReuse || p.StreamBlocks == 0 {
				addr = privBaseAddr + uint64(r.intn(max(p.PrivateBlocks, 1)))
			} else {
				addr = privBaseAddr + uint64(p.PrivateBlocks+streamPos)
				streamPos = (streamPos + 1) % p.StreamBlocks
			}
			kind := Load
			if r.float() < p.WriteFrac {
				kind = Store
			}
			refs = append(refs, Ref{Addr: g.phys(addr), Kind: kind, Gap: gap()})
		}
	}
	return refs
}

func (g *Gen) phys(vaddr uint64) uint64 {
	if g.noTranslate {
		return vaddr
	}
	return translate(vaddr)
}

func (g *Gen) pickGroup(id int, r *rng) int {
	lo, hi := g.eligOff[id], g.eligOff[id+1]
	cw := g.cumW[lo:hi]
	total := cw[len(cw)-1]
	x := r.float() * total
	for i, w := range cw {
		if x <= w {
			return g.eligible[lo+i]
		}
	}
	return g.eligible[hi-1]
}

// Traces generates n-reference traces for every core. All cores' refs
// are carved from one backing array, each capped by a full slice
// expression so an append can never run into the next core's refs.
func (g *Gen) Traces(n int) [][]Ref {
	out := make([][]Ref, g.cores)
	backing := make([]Ref, g.cores*n)
	for c := 0; c < g.cores; c++ {
		out[c] = g.coreTrace(c, n, backing[c*n:c*n:(c+1)*n])
	}
	g.stats = g.measure(out)
	return out
}

// Stats returns the generator-side trace.* measurements of the last
// Traces call (nil when the profile's family defines none). The harness
// copies them into Metrics.Tracker so figure math and stored results can
// see workload-level ground truth — e.g. the false-sharing census of the
// false-sharing family. Callers must treat the map as read-only.
func (g *Gen) Stats() map[string]uint64 { return g.stats }
