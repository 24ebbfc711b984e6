package trace

// The 17 application profiles of Table II, as synthetic models. Each
// parameter set is chosen to reproduce the per-application behaviour the
// paper's characterization figures report (noted per app below):
// shared-footprint size and sharer-count bins (Fig. 2), fraction of
// accesses/blocks suffering lengthened critical paths under in-LLC
// tracking (Figs. 6/7, e.g. barnes is the 78%-of-blocks outlier), STRA
// category skew (Figs. 8/9), and baseline LLC miss rate (§V-A: ocean_cp
// 35%, 314.mgrid 78%, 324.apsi 12%, 330.art 63%, SPECWeb 14-19%).
// Absolute footprints are scaled to simulation lengths of thousands of
// references per core rather than the paper's billions of instructions;
// all figure comparisons are self-normalized, so the scale cancels.
//
// Scale anchors (ScaleExperiment): L1 = 256 blocks, L2 = 512 blocks per
// core, LLC = 1024 blocks per core. Private working sets a bit above L2
// produce directory pressure (Fig. 1); hot shared sets larger than L1
// keep shared reads recurring at the LLC (Figs. 6-9).

// Apps returns the 17 profiles in the paper's presentation order.
func Apps() []Profile {
	return []Profile{
		{
			// PARSEC bodytrack: tall Fig. 1 bars (directory pressure from
			// a private set just above L2), moderate read-mostly sharing.
			Name: "bodytrack", Seed: 101,
			PrivateBlocks: 640, PrivateReuse: 0.95, StreamBlocks: 500,
			SharedFrac: 0.24, SharedWriteFrac: 0.05,
			Groups: []SharedGroup{
				{Count: 6, Blocks: 160, Sharers: 4, Weight: 1.0},
				{Count: 4, Blocks: 128, Sharers: 8, Weight: 1.5},
			},
			HotFrac: 0.5, HotBlocks: 40,
			CodeFrac: 0.05, CodeBlocks: 160, WriteFrac: 0.25, Gap: 6, PhaseRefs: 1200,
		},
		{
			// PARSEC swaptions: the other tall Fig. 1 app.
			Name: "swaptions", Seed: 102,
			PrivateBlocks: 600, PrivateReuse: 0.96, StreamBlocks: 300,
			SharedFrac: 0.22, SharedWriteFrac: 0.03,
			Groups: []SharedGroup{
				{Count: 8, Blocks: 96, Sharers: 2, Weight: 1.0},
				{Count: 4, Blocks: 128, Sharers: 8, Weight: 1.3},
			},
			HotFrac: 0.5, HotBlocks: 32,
			CodeFrac: 0.04, CodeBlocks: 128, WriteFrac: 0.2, Gap: 7, PhaseRefs: 1500,
		},
		{
			// SPLASH-2 barnes: the Fig. 7 outlier — most allocated LLC
			// blocks are read-shared tree nodes sourcing lengthened
			// accesses; tiny private footprint.
			Name: "barnes", Seed: 103,
			PrivateBlocks: 64, PrivateReuse: 0.95, StreamBlocks: 40,
			SharedFrac: 0.80, SharedWriteFrac: 0.02,
			Groups: []SharedGroup{
				{Count: 12, Blocks: 160, Sharers: 8, Weight: 1.0},
				{Count: 10, Blocks: 128, Sharers: 16, Weight: 1.4},
				{Count: 4, Blocks: 96, Sharers: 64, Weight: 1.8},
			},
			HotFrac: 0.35, HotBlocks: 48,
			CodeFrac: 0.04, CodeBlocks: 96, WriteFrac: 0.15, Gap: 5, PhaseRefs: 900,
		},
		{
			// SPLASH-2 ocean_cp: ~35% LLC miss rate from grid sweeps;
			// nearest-neighbour sharing with writes keeps blocks
			// migrating in exclusive state (the paper notes smaller
			// directories can *help* it: three-hop to two-hop conversion).
			Name: "ocean_cp", Seed: 104,
			PrivateBlocks: 600, PrivateReuse: 0.78, StreamBlocks: 4000,
			SharedFrac: 0.16, SharedWriteFrac: 0.22,
			Groups: []SharedGroup{
				{Count: 12, Blocks: 96, Sharers: 2, Weight: 1.0},
				{Count: 6, Blocks: 64, Sharers: 4, Weight: 0.8},
			},
			HotFrac: 0.3, HotBlocks: 16,
			CodeFrac: 0.02, CodeBlocks: 48, WriteFrac: 0.35, Gap: 4, PhaseRefs: 1000,
		},
		{
			// 314.mgrid: ~78% LLC miss rate — streaming grid traversal.
			Name: "314.mgrid", Seed: 105,
			PrivateBlocks: 300, PrivateReuse: 0.45, StreamBlocks: 20000,
			SharedFrac: 0.06, SharedWriteFrac: 0.10,
			Groups: []SharedGroup{
				{Count: 6, Blocks: 64, Sharers: 4, Weight: 1.0},
			},
			HotFrac: 0.4, HotBlocks: 8,
			CodeFrac: 0.02, CodeBlocks: 32, WriteFrac: 0.3, Gap: 4,
		},
		{
			// 316.applu: streaming plus boundary sharing; a visible
			// Fig. 7 population and the Fig. 20 worst case.
			Name: "316.applu", Seed: 106,
			PrivateBlocks: 500, PrivateReuse: 0.72, StreamBlocks: 5000,
			SharedFrac: 0.20, SharedWriteFrac: 0.05,
			Groups: []SharedGroup{
				{Count: 10, Blocks: 128, Sharers: 4, Weight: 1.0},
				{Count: 4, Blocks: 96, Sharers: 8, Weight: 1.2},
			},
			HotFrac: 0.45, HotBlocks: 32,
			CodeFrac: 0.02, CodeBlocks: 64, WriteFrac: 0.3, Gap: 4,
		},
		{
			// 324.apsi: ~12% LLC miss rate, modest sharing.
			Name: "324.apsi", Seed: 107,
			PrivateBlocks: 600, PrivateReuse: 0.95, StreamBlocks: 700,
			SharedFrac: 0.12, SharedWriteFrac: 0.08,
			Groups: []SharedGroup{
				{Count: 6, Blocks: 96, Sharers: 4, Weight: 1.0},
				{Count: 2, Blocks: 64, Sharers: 8, Weight: 0.8},
			},
			HotFrac: 0.4, HotBlocks: 24,
			CodeFrac: 0.04, CodeBlocks: 128, WriteFrac: 0.3, Gap: 5,
		},
		{
			// 330.art: ~63% LLC miss rate — repeated large sweeps.
			Name: "330.art", Seed: 108,
			PrivateBlocks: 400, PrivateReuse: 0.55, StreamBlocks: 12000,
			SharedFrac: 0.05, SharedWriteFrac: 0.08,
			Groups: []SharedGroup{
				{Count: 4, Blocks: 48, Sharers: 4, Weight: 1.0},
			},
			HotFrac: 0.4, HotBlocks: 8,
			CodeFrac: 0.02, CodeBlocks: 32, WriteFrac: 0.25, Gap: 3, PhaseRefs: 1500,
		},
		{
			// SPEC JBB: commercial Java server — big read-shared heap with
			// mid-size sharer groups and substantial shared code.
			Name: "SPECjbb", Seed: 109,
			PrivateBlocks: 680, PrivateReuse: 0.95, StreamBlocks: 1200,
			SharedFrac: 0.30, SharedWriteFrac: 0.07,
			Groups: []SharedGroup{
				{Count: 10, Blocks: 224, Sharers: 8, Weight: 1.0},
				{Count: 8, Blocks: 160, Sharers: 16, Weight: 1.2},
				{Count: 3, Blocks: 128, Sharers: 32, Weight: 0.9},
			},
			HotFrac: 0.35, HotBlocks: 64,
			CodeFrac: 0.18, CodeBlocks: 640, WriteFrac: 0.3, Gap: 6, PhaseRefs: 1000,
		},
		{
			// SPECWeb Banking: ~14% miss rate; code shared by every
			// worker thread dominates the lengthened accesses (Fig. 6).
			Name: "SPECweb-B", Seed: 110,
			PrivateBlocks: 660, PrivateReuse: 0.94, StreamBlocks: 1600,
			SharedFrac: 0.28, SharedWriteFrac: 0.05,
			Groups: []SharedGroup{
				{Count: 8, Blocks: 224, Sharers: 16, Weight: 1.0},
				{Count: 5, Blocks: 160, Sharers: 64, Weight: 1.4},
				{Count: 2, Blocks: 128, Sharers: 128, Weight: 1.2},
			},
			HotFrac: 0.35, HotBlocks: 64,
			CodeFrac: 0.24, CodeBlocks: 896, WriteFrac: 0.25, Gap: 6, PhaseRefs: 900,
		},
		{
			// SPECWeb Ecommerce: ~19% miss rate.
			Name: "SPECweb-E", Seed: 111,
			PrivateBlocks: 640, PrivateReuse: 0.93, StreamBlocks: 2200,
			SharedFrac: 0.28, SharedWriteFrac: 0.06,
			Groups: []SharedGroup{
				{Count: 8, Blocks: 224, Sharers: 16, Weight: 1.0},
				{Count: 5, Blocks: 160, Sharers: 64, Weight: 1.3},
				{Count: 2, Blocks: 128, Sharers: 128, Weight: 1.1},
			},
			HotFrac: 0.35, HotBlocks: 64,
			CodeFrac: 0.23, CodeBlocks: 960, WriteFrac: 0.26, Gap: 6, PhaseRefs: 900,
		},
		{
			// SPECWeb Support: ~18% miss rate, the largest file streams.
			Name: "SPECweb-S", Seed: 112,
			PrivateBlocks: 620, PrivateReuse: 0.93, StreamBlocks: 2400,
			SharedFrac: 0.26, SharedWriteFrac: 0.05,
			Groups: []SharedGroup{
				{Count: 8, Blocks: 224, Sharers: 16, Weight: 1.0},
				{Count: 5, Blocks: 160, Sharers: 64, Weight: 1.2},
				{Count: 2, Blocks: 128, Sharers: 128, Weight: 1.0},
			},
			HotFrac: 0.35, HotBlocks: 64,
			CodeFrac: 0.22, CodeBlocks: 832, WriteFrac: 0.25, Gap: 6, PhaseRefs: 900,
		},
		{
			// TPC-C on MySQL: OLTP — widely read B-tree upper levels,
			// read-write leaves, shared code.
			Name: "TPC-C", Seed: 113,
			PrivateBlocks: 700, PrivateReuse: 0.94, StreamBlocks: 1400,
			SharedFrac: 0.32, SharedWriteFrac: 0.11,
			Groups: []SharedGroup{
				{Count: 10, Blocks: 192, Sharers: 8, Weight: 1.0},
				{Count: 7, Blocks: 160, Sharers: 16, Weight: 1.1},
				{Count: 2, Blocks: 128, Sharers: 48, Weight: 0.9},
			},
			HotFrac: 0.4, HotBlocks: 56,
			CodeFrac: 0.17, CodeBlocks: 768, WriteFrac: 0.3, Gap: 5, PhaseRefs: 1000,
		},
		{
			// TPC-E: more read-heavy OLTP than TPC-C.
			Name: "TPC-E", Seed: 114,
			PrivateBlocks: 680, PrivateReuse: 0.94, StreamBlocks: 1200,
			SharedFrac: 0.31, SharedWriteFrac: 0.07,
			Groups: []SharedGroup{
				{Count: 10, Blocks: 192, Sharers: 8, Weight: 1.0},
				{Count: 7, Blocks: 160, Sharers: 16, Weight: 1.2},
				{Count: 2, Blocks: 128, Sharers: 48, Weight: 0.9},
			},
			HotFrac: 0.4, HotBlocks: 56,
			CodeFrac: 0.16, CodeBlocks: 704, WriteFrac: 0.28, Gap: 5, PhaseRefs: 1000,
		},
		{
			// TPC-H: decision support — streaming scans plus widely
			// read-shared dimension tables; a visible Fig. 7 population.
			Name: "TPC-H", Seed: 115,
			PrivateBlocks: 560, PrivateReuse: 0.85, StreamBlocks: 3000,
			SharedFrac: 0.34, SharedWriteFrac: 0.02,
			Groups: []SharedGroup{
				{Count: 8, Blocks: 224, Sharers: 16, Weight: 1.0},
				{Count: 5, Blocks: 160, Sharers: 32, Weight: 1.3},
			},
			HotFrac: 0.45, HotBlocks: 64,
			CodeFrac: 0.11, CodeBlocks: 512, WriteFrac: 0.2, Gap: 5, PhaseRefs: 1100,
		},
		{
			// SPEC JVM sunflow: rendering — read-shared scene graph.
			Name: "sunflow", Seed: 116,
			PrivateBlocks: 620, PrivateReuse: 0.95, StreamBlocks: 700,
			SharedFrac: 0.20, SharedWriteFrac: 0.02,
			Groups: []SharedGroup{
				{Count: 8, Blocks: 160, Sharers: 8, Weight: 1.0},
				{Count: 4, Blocks: 128, Sharers: 16, Weight: 1.1},
			},
			HotFrac: 0.4, HotBlocks: 48,
			CodeFrac: 0.08, CodeBlocks: 384, WriteFrac: 0.2, Gap: 6, PhaseRefs: 1300,
		},
		{
			// SPEC JVM compress: almost entirely private — the
			// low-sharing anchor of Fig. 2.
			Name: "compress", Seed: 117,
			PrivateBlocks: 760, PrivateReuse: 0.93, StreamBlocks: 1000,
			SharedFrac: 0.03, SharedWriteFrac: 0.05,
			Groups: []SharedGroup{
				{Count: 2, Blocks: 48, Sharers: 4, Weight: 1.0},
			},
			HotFrac: 0.4, HotBlocks: 8,
			CodeFrac: 0.05, CodeBlocks: 192, WriteFrac: 0.3, Gap: 6,
		},
	}
}

// FamilyApps returns the reference profiles of the specialized generator
// families (families.go) — sharing-pattern extremes the classic 17 mixed
// applications under-stress: falsely-shared lines, contended hot-home
// locks, producer-consumer rings, migratory work stealing, and a
// multi-program rate-mode mix. Like Apps, parameters are scaled to
// thousands of references per core against the ScaleExperiment anchors.
func FamilyApps() []Profile {
	return []Profile{
		{
			// 96 lines, each byte-sliced across up to 64 cores; writes
			// dominate the line traffic so invalidations ping-pong.
			Name: "falseshare", Seed: 201, Family: FamilyFalseSharing,
			FamUnits: 96, FamSpan: 1,
			PrivateBlocks: 400, PrivateReuse: 0.9, StreamBlocks: 200,
			SharedFrac: 0.35, SharedWriteFrac: 0.6,
			WriteFrac: 0.2, Gap: 5,
		},
		{
			// 6 locks homed on two hot banks; short critical sections over
			// 24-block protected regions.
			Name: "lockhome", Seed: 202, Family: FamilyLock,
			FamUnits: 6, FamSpan: 24, FamHomeBanks: []int{0, 3},
			PrivateBlocks: 350, PrivateReuse: 0.92, StreamBlocks: 150,
			SharedFrac: 0.3, SharedWriteFrac: 0.3,
			WriteFrac: 0.2, Gap: 5,
		},
		{
			// One ring per core pair, 32 slots, consumer lagging half a
			// ring — pure pairwise producer-consumer migration.
			Name: "ringbuf", Seed: 203, Family: FamilyRing,
			FamSpan:       32,
			PrivateBlocks: 300, PrivateReuse: 0.9, StreamBlocks: 100,
			SharedFrac: 0.4, WriteFrac: 0.15, Gap: 4,
		},
		{
			// Migratory chunks of 8 blocks rotating owners every 192
			// references; the owner writes half its touches.
			Name: "worksteal", Seed: 204, Family: FamilySteal,
			FamSpan: 8, FamPhaseRefs: 192,
			PrivateBlocks: 320, PrivateReuse: 0.9, StreamBlocks: 120,
			SharedFrac: 0.35, SharedWriteFrac: 0.5,
			WriteFrac: 0.2, Gap: 5,
		},
		{
			// Rate mode: per-core heterogeneous private programs plus a
			// 320-block read/ifetch-only shared OS region.
			Name: "multiprog", Seed: 205, Family: FamilyMultiprog,
			FamSpan:       320,
			PrivateBlocks: 500, PrivateReuse: 0.88, StreamBlocks: 600,
			SharedFrac: 0.12, WriteFrac: 0.3, Gap: 6,
		},
	}
}

// AppByName returns the profile with the given name, searching the 17
// classic applications and then the family reference profiles.
func AppByName(name string) (Profile, bool) {
	for _, p := range Apps() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range FamilyApps() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
