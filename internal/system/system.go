package system

import (
	"fmt"
	"sort"

	"tinydir/internal/bitvec"
	"tinydir/internal/cache"
	"tinydir/internal/dram"
	"tinydir/internal/fault"
	"tinydir/internal/freelist"
	"tinydir/internal/mesh"
	"tinydir/internal/obs"
	"tinydir/internal/proto"
	"tinydir/internal/sim"
	"tinydir/internal/trace"
)

// Cache-slab free lists shared by every System built in this process:
// sweeps construct hundreds of identically-sized machines back to back,
// and recycling the line storage removes the dominant construction cost
// (zeroing multi-megabyte LLC and private-cache slabs per run). See
// cache.Pool for why reuse cannot change simulation results.
var (
	privPool cache.Pool[privMeta]
	llcPool  cache.Pool[proto.LLCMeta]
)

// nodeSlabs holds released machines' node slabs, one list per core count:
// System.ReleaseStorage empties every node in place, and New builds the
// next machine's nodes on them.
var nodeSlabs freelist.Keyed[int, nodeSlab]

type nodeSlab struct {
	cores []coreNode
	banks []bankNode
}

// System is one fully-wired simulated machine.
type System struct {
	cfg   Config
	eng   *sim.Engine
	net   *mesh.Mesh
	mem   *dram.Memory
	cores []coreNode
	banks []bankNode

	memTiles []int
	maxDist  int

	checker *GoldenChecker

	// flt is the fault injector (nil when fault injection is off; see
	// DESIGN.md §10). Component ids partition its PRNG streams: mesh
	// source nodes use [0, Cores), bank ECC checkers [Cores, 2*Cores),
	// DRAM channels [2*Cores, 2*Cores+MemChannels).
	flt *fault.Injector

	// Time-resolved observability (nil when disabled; see obs.go).
	rec        *obs.Recorder
	epochEvery uint64
	nextEpoch  uint64
	retired    uint64

	running int
	metrics Metrics

	// released marks a machine whose storage ReleaseStorage handed to the
	// free lists; its caches and tables may already belong to another run.
	released bool
}

// New builds a system and loads the per-core traces.
func New(cfg Config, traces [][]trace.Ref) *System {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if len(traces) != cfg.Cores {
		panic("system: trace count != cores")
	}
	s := &System{cfg: cfg, eng: &sim.Engine{}, checker: cfg.Checker}
	s.flt = fault.New(cfg.Faults, 2*cfg.Cores+cfg.MemChannels)
	w, h := meshDims(cfg.Cores)
	s.net = mesh.New(s.eng, mesh.Config{Width: w, Height: h})
	s.maxDist = w + h
	if s.flt != nil {
		s.net.Faults = s.flt
		s.net.Droppable = faultDroppable
	}
	s.mem = dram.New(s.eng, cfg.MemChannels)
	if s.flt != nil {
		s.mem.Faults = s.flt
		s.mem.FaultComp = 2 * cfg.Cores
	}
	// Memory controllers sit on evenly spaced tiles.
	s.memTiles = make([]int, cfg.MemChannels)
	for ch := range s.memTiles {
		s.memTiles[ch] = ch * (cfg.Cores / cfg.MemChannels)
	}
	// Nodes are built in place, on a released machine's slabs when there
	// are some: trackers and event handlers keep pointers into these
	// slabs, which therefore never grow.
	slab, ok := nodeSlabs.List(cfg.Cores).Get()
	if !ok {
		slab = nodeSlab{cores: make([]coreNode, cfg.Cores), banks: make([]bankNode, cfg.Cores)}
	}
	s.cores, s.banks = slab.cores, slab.banks
	for i := range s.banks {
		s.banks[i].init(s, i)
	}
	for i := range s.cores {
		s.cores[i].init(s, i, traces[i])
	}
	s.attachObs()
	return s
}

// Engine exposes the event engine (tests drive it directly).
func (s *System) Engine() *sim.Engine { return s.eng }

// FaultInjector returns the active fault injector, or nil when fault
// injection is off. Soak tests read its Stats to assert that faults
// actually fired during a run.
func (s *System) FaultInjector() *fault.Injector { return s.flt }

// bankOf returns the home bank of a block address.
func (s *System) bankOf(addr uint64) *bankNode {
	return &s.banks[int(addr%uint64(s.cfg.Cores))]
}

// memTile returns the tile of the memory controller owning addr.
func (s *System) memTile(addr uint64) int {
	return s.memTiles[s.mem.Channel(addr)]
}

// findHolders is the broadcast oracle: the actual private holders of a
// block, as snoop responses would report them. Cache-resident copies take
// precedence over eviction-buffer copies: once the home bank has processed
// an eviction notice, the evicting core's buffered copy is dead, but a
// lost acknowledgement (fault mode) leaves the slot alive until the
// retransmit handshake clears it. Electing such a stale buffer as owner
// would shadow the true holder — the block may have been re-granted and
// rewritten since — so a buffered E/M copy only establishes ownership when
// no core holds the block in cache, and joins the sharer set otherwise.
func (s *System) findHolders(addr uint64) proto.Entry {
	var sharers []int
	bufOwner := -1
	for i := range s.cores {
		c := &s.cores[i]
		st, buffered := c.probe(addr)
		switch st {
		case psE, psM:
			if !buffered {
				return proto.Entry{State: proto.Exclusive, Owner: c.id}
			}
			if bufOwner < 0 {
				bufOwner = c.id
			}
			sharers = append(sharers, c.id)
		case psS:
			sharers = append(sharers, c.id)
		}
	}
	switch {
	case bufOwner >= 0 && len(sharers) == 1:
		// The buffered copy is the only one anywhere: the notice is (at
		// worst) in flight and the buffer holds the live data.
		return proto.Entry{State: proto.Exclusive, Owner: bufOwner}
	case len(sharers) == 0:
		return proto.Entry{State: proto.Unowned}
	}
	v := bitvec.New(s.cfg.Cores)
	for _, c := range sharers {
		v.Set(c)
	}
	return proto.Entry{State: proto.Shared, Sharers: v}
}

func (s *System) coreFinished() {
	s.running--
	if s.running == 0 {
		// Execution time is set when the last core retires; remaining
		// events (writebacks in flight) drain afterwards.
		last := s.cores[0].finishAt
		for i := range s.cores {
			c := &s.cores[i]
			if c.finishAt > last {
				last = c.finishAt
			}
		}
		s.metrics.Cycles = uint64(last)
		if s.rec != nil && s.rec.Watchdog != nil {
			// Remaining events are drain (writebacks, stale retransmit
			// timers): no further retirements can happen, so an armed
			// watchdog would eventually misfire on the silence.
			s.rec.Watchdog.Disarm()
		}
	}
}

// Run executes the simulation to completion and returns the metrics.
// maxEvents bounds runaway simulations (0 = unlimited).
func (s *System) Run(maxEvents uint64) Metrics {
	s.Start()
	return s.Complete(maxEvents)
}

// Start issues each core's first reference. It must be called exactly once,
// before RunEvents/Complete — except on a Restore'd system, where the saved
// state already includes the started cores.
func (s *System) Start() {
	s.running = s.cfg.Cores
	for i := range s.cores {
		c := &s.cores[i]
		c.step()
	}
}

// RunEvents drives the engine for at most n events (n must be > 0) and
// returns the number executed. It leaves the machine in a consistent
// between-events state, suitable for Save.
func (s *System) RunEvents(n uint64) uint64 {
	return s.eng.Run(n)
}

// Complete runs the remaining events until the simulation drains, then
// harvests and returns the metrics. maxEvents is the same total budget Run
// accepts (0 = unlimited) and counts events already executed via RunEvents
// or replayed through Restore, so Start+RunEvents(k)+Complete(m) and
// Restore+Complete(m) both execute exactly the events Run(m) would.
func (s *System) Complete(maxEvents uint64) Metrics {
	if maxEvents == 0 {
		s.eng.Run(0)
	} else if done := s.eng.Executed(); done < maxEvents {
		s.eng.Run(maxEvents - done)
	}
	if s.running > 0 {
		panic("system: simulation ended with unfinished cores (deadlock?)")
	}
	s.collect()
	return s.metrics
}

// ReleaseStorage hands the machine's reusable storage to process-wide
// free lists for the next System built in this process: the cache slabs,
// the trackers with their tag slabs, the DRAM channels with their
// queues, the core and bank slabs with their address tables (eviction
// buffers, deferred messages, busy maps, transaction records, holder
// buffers) and the engine's event queue (kept if events are still
// pending). Call it only when the machine is finished and will not be
// touched again: metrics extracted, end-state checks done, no pending
// Save. Reuse cannot change results, because each structure is reset to
// exactly its freshly built state. Afterwards only Metrics may be
// called; the end-state checks, DumpStall and Save panic, since the storage
// they would read may already hold another run's state.
func (s *System) ReleaseStorage() {
	s.mustLive("ReleaseStorage")
	s.released = true
	for i := range s.cores {
		s.cores[i].release()
	}
	for i := range s.banks {
		s.banks[i].release()
	}
	nodeSlabs.List(len(s.cores)).Put(nodeSlab{cores: s.cores, banks: s.banks})
	s.cores, s.banks = nil, nil
	s.mem.Release()
	s.eng.Release()
}

// mustLive panics when the machine's storage has been released.
func (s *System) mustLive(op string) {
	if s.released {
		panic("system: " + op + " on a System after ReleaseStorage")
	}
}

func (s *System) collect() {
	s.flushObs()
	m := &s.metrics
	for i := range s.banks {
		b := &s.banks[i]
		b.finalHarvest()
	}
	m.Tracker = map[string]uint64{}
	for i := range s.banks {
		b := &s.banks[i]
		b.tracker.Metrics(m.Tracker)
	}
	if s.flt != nil {
		s.flt.Metrics(m.Tracker)
	}
	for k, v := range s.cfg.TraceStats {
		m.Tracker[k] = v
	}
	for cl := mesh.TrafficClass(0); cl < mesh.NumClasses; cl++ {
		m.TrafficBytes[cl] = s.net.TrafficBytes(cl)
	}
	ds := s.mem.Stats()
	m.DRAMReads, m.DRAMWrites, m.DRAMRowHits = ds.Reads, ds.Writes, ds.RowHits
}

// CheckCoherence verifies, at quiescence, that every tracker's view
// matches the actual private-cache contents: at most one E/M owner per
// block, exact sharer sets, and no private copy untracked (except schemes
// that deliberately drop private tracking). Returns a list of violation
// descriptions (empty = coherent). Used by the invariant tests.
func (s *System) CheckCoherence(allowUntrackedPrivate bool) []string {
	s.mustLive("CheckCoherence")
	var bad []string
	// Gather actual state per block.
	type holderInfo struct {
		owners  []int
		sharers []int
	}
	actual := map[uint64]*holderInfo{}
	for i := range s.cores {
		c := &s.cores[i]
		c.l2.ForEach(func(l *cacheLine) {
			hi := actual[l.Addr]
			if hi == nil {
				hi = &holderInfo{}
				actual[l.Addr] = hi
			}
			if l.Meta.st == psE || l.Meta.st == psM {
				hi.owners = append(hi.owners, c.id)
			} else {
				hi.sharers = append(hi.sharers, c.id)
			}
		})
	}
	// Walk blocks in sorted order so the violation report (and the tests
	// pinning it) never depends on map iteration order.
	for _, addr := range sortedAddrs(len(actual), func(fn func(uint64)) {
		for a := range actual {
			fn(a)
		}
	}) {
		hi := actual[addr]
		if len(hi.owners) > 1 {
			bad = append(bad, sprintf("block %#x has %d exclusive owners", addr, len(hi.owners)))
			continue
		}
		if len(hi.owners) == 1 && len(hi.sharers) > 0 {
			bad = append(bad, sprintf("block %#x has owner %d plus %d sharers", addr, hi.owners[0], len(hi.sharers)))
			continue
		}
		e, ok := s.bankOf(addr).tracker.Lookup(addr)
		if !ok {
			if !allowUntrackedPrivate {
				bad = append(bad, sprintf("block %#x held privately but untracked", addr))
			}
			continue
		}
		if len(hi.owners) == 1 {
			if e.State != proto.Exclusive || e.Owner != hi.owners[0] {
				bad = append(bad, sprintf("block %#x owned by %d but tracked as %v/%d", addr, hi.owners[0], e.State, e.Owner))
			}
			continue
		}
		if e.State == proto.Exclusive {
			bad = append(bad, sprintf("block %#x tracked exclusive at %d but held shared", addr, e.Owner))
			continue
		}
		if e.State != proto.Shared {
			bad = append(bad, sprintf("block %#x held shared but tracked %v", addr, e.State))
			continue
		}
		for _, sh := range hi.sharers {
			if !e.Sharers.Test(sh) {
				bad = append(bad, sprintf("block %#x sharer %d missing from tracked set %v", addr, sh, e.Sharers))
			}
		}
	}
	return bad
}

// CheckExactSharers verifies, at quiescence, that tracked sharer sets
// contain no phantom members: for every block still privately held, the
// tracked Shared set must equal the actual holder set exactly. Only
// meaningful for lossless (full-map) trackers — limited-pointer and
// coarse-vector formats inflate sharer sets by design, and region-grain
// or broadcast schemes reconstruct them lazily.
func (s *System) CheckExactSharers() []string {
	s.mustLive("CheckExactSharers")
	var bad []string
	actual := map[uint64]map[int]bool{}
	for i := range s.cores {
		c := &s.cores[i]
		c.l2.ForEach(func(l *cacheLine) {
			if actual[l.Addr] == nil {
				actual[l.Addr] = map[int]bool{}
			}
			actual[l.Addr][c.id] = true
		})
	}
	for _, addr := range sortedAddrs(len(actual), func(fn func(uint64)) {
		for a := range actual {
			fn(a)
		}
	}) {
		holders := actual[addr]
		e, ok := s.bankOf(addr).tracker.Lookup(addr)
		if !ok || e.State != proto.Shared {
			continue // ownership exactness is CheckCoherence's job
		}
		for sh := e.Sharers.First(); sh >= 0; sh = e.Sharers.Next(sh) {
			if !holders[sh] {
				bad = append(bad, sprintf("block %#x tracks phantom sharer %d (actual %v)", addr, sh, holders))
			}
		}
	}
	return bad
}

// cacheLine aliases the private-cache line type for the checker.
type cacheLine = cache.Line[privMeta]

func sprintf(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

// DumpStall reports, for debugging, every unfinished core's outstanding
// request and every bank's busy transactions — the first thing to read
// when a simulation hits its event cap.
func (s *System) DumpStall() string {
	s.mustLive("DumpStall")
	var b []byte
	add := func(f string, args ...interface{}) { b = append(b, sprintf(f, args...)...) }
	for i := range s.cores {
		c := &s.cores[i]
		if c.finished {
			continue
		}
		add("core %d pos %d/%d retries %d", c.id, c.pos, len(c.refs), c.retries)
		if o := c.out; o != nil {
			add(" out{addr %#x %v grant=%v acks %d/%d data=%v mode=%d done=%v}",
				o.addr, o.kind, o.hasGrant, o.acks, o.wantAcks, o.hasData, o.dataMode, o.done)
		}
		if c.evictBuf.Len() > 0 {
			add(" evictBuf %d", c.evictBuf.Len())
		}
		add("\n")
	}
	for i := range s.banks {
		bk := &s.banks[i]
		for _, addr := range sortedBlockmapAddrs(&bk.busy) {
			t := bk.busyGet(addr)
			add("bank %d busy %#x kind=%v req=%d backInvalAcks=%d\n",
				bk.id, addr, t.kind, t.requester, t.backInvalAcks)
		}
	}
	return string(b)
}

// sortedAddrs collects addresses from an arbitrary-order walk and returns
// them ascending, making reports deterministic.
func sortedAddrs(n int, walk func(fn func(uint64))) []uint64 {
	addrs := make([]uint64, 0, n)
	walk(func(a uint64) { addrs = append(addrs, a) })
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}
