package system

import (
	"fmt"

	"tinydir/internal/blockmap"
	"tinydir/internal/cache"
	"tinydir/internal/fault"
	"tinydir/internal/mesh"
	"tinydir/internal/obs"
	"tinydir/internal/proto"
	"tinydir/internal/sim"
	"tinydir/internal/trace"
)

// privState is the MESI state of a block in a private cache.
type privState uint8

const (
	psI privState = iota
	psS
	psE
	psM
)

type privMeta struct{ st privState }

// outstanding tracks the single in-flight demand miss of a core.
type outstanding struct {
	addr   uint64
	kind   proto.ReqKind
	ifetch bool

	hasGrant   bool
	grantState privState
	wantAcks   int // -1 until the grant arrives
	acks       int
	hasData    bool
	dataMode   int // 0 none needed, 1 with grant, 2 separate message
	notifyHome bool
	done       bool

	// seq identifies this logical request across retransmissions (fault
	// mode: home banks suppress duplicates by it); xmits counts them for
	// the exponential-backoff timer.
	seq   uint16
	xmits uint8

	// Observability-only classification (see recordMissRetire). These are
	// dead state when no recorder is attached and are deliberately not
	// serialized: instrumented runs never restore from a checkpoint.
	issuedAt   sim.Time
	nacked     bool
	threeHop   bool
	lengthened bool
	viaMem     bool
}

// coreNode is one tile's core plus its private cache hierarchy. The
// System holds every coreNode in one slice and the cache headers are
// fields, so a machine's cores are one allocation, not four per core.
type coreNode struct {
	sys  *System
	id   int
	l1i  cache.Cache[privMeta]
	l1d  cache.Cache[privMeta]
	l2   cache.Cache[privMeta]
	refs []trace.Ref
	pos  int

	out *outstanding
	// outBuf backs out: a core has at most one in-flight demand miss, so
	// the record is embedded and overwritten per miss instead of
	// allocated. No pointer to it survives past the event that retires
	// the miss (maybeComplete's local is dead before step reuses it).
	outBuf outstanding
	// evictBuf holds blocks between eviction notice and acknowledgement;
	// open-addressed because it is probed on every miss issue and forward.
	evictBuf blockmap.Map[evictEntry]

	// reqSeq numbers logical requests and evictSeq eviction-notice
	// transmissions; both only matter in fault mode (the dedup machinery
	// keyed on them is nil-checked) but are maintained unconditionally —
	// a counter bump costs nothing and keeps the state machine uniform.
	reqSeq   uint16
	evictSeq uint16

	// pendingFwd queues a forwarded request that raced ahead of this
	// core's own fill for the same block; pendingInvs queues
	// invalidations in the same situation (GS320-style late handling).
	pendingFwd  blockmap.Map[fwdReq]
	pendingInvs blockmap.Map[[]invReq]

	finished bool
	finishAt sim.Time
	retries  uint64
}

type fwdReq struct {
	kind       proto.ReqKind
	requester  int
	bank       int
	lengthened bool
}

type invReq struct {
	ackTo    int // core id to ack (GetX collection), or -1
	ackBank  int // bank id to ack (back-invalidation), or -1
	withData bool
}

// evictEntry is one eviction-buffer slot: the evicted block's private
// state plus the fault-mode retransmission bookkeeping. seq is the
// sequence number of the *latest* transmitted notice — the core clears
// the slot only on an acknowledgement echoing it, so a delayed ack for
// a superseded notice can never release a newer one.
type evictEntry struct {
	st    privState
	seq   uint16
	xmits uint8
}

// init sets up c, a core of its System's slab that is either zero or
// emptied by release, as core id replaying refs. Only the storage of the
// address tables carries over.
func (c *coreNode) init(sys *System, id int, refs []trace.Ref) {
	cfg := sys.cfg
	*c = coreNode{sys: sys, id: id, refs: refs,
		evictBuf: c.evictBuf, pendingFwd: c.pendingFwd, pendingInvs: c.pendingInvs}
	c.l1i.InitIn(&privPool, cfg.L1Sets, cfg.L1Ways, cache.LRU)
	c.l1d.InitIn(&privPool, cfg.L1Sets, cfg.L1Ways, cache.LRU)
	c.l2.InitIn(&privPool, cfg.L2Sets, cfg.L2Ways, cache.LRU)
}

// release hands the core's cache storage to its free list and empties
// its address tables in place for the next machine built on this slab.
func (c *coreNode) release() {
	c.l1i.Release(&privPool)
	c.l1d.Release(&privPool)
	c.l2.Release(&privPool)
	c.evictBuf.Reset()
	c.pendingFwd.Reset()
	c.pendingInvs.Reset()
}

// step replays trace references. Private-cache hits are batched inside a
// single event (they cannot affect shared state); the loop breaks when a
// miss must go to the home bank or the trace ends.
func (c *coreNode) step() {
	eng := c.sys.eng
	var elapsed sim.Time
	for {
		if c.pos >= len(c.refs) {
			c.finished = true
			c.finishAt = eng.Now() + elapsed
			c.sys.coreFinished()
			return
		}
		ref := c.refs[c.pos]
		elapsed += sim.Time(ref.Gap)
		l1 := &c.l1d
		if ref.Kind == trace.Ifetch {
			l1 = &c.l1i
		}
		if l := l1.Lookup(ref.Addr); l != nil {
			if ref.Kind != trace.Store || l.Meta.st == psM || l.Meta.st == psE {
				// Plain hit (E->M upgrade is silent).
				l1.Touch(l)
				if ref.Kind == trace.Store && l.Meta.st != psM {
					// First store to this copy: an L1 line in M implies the
					// L2 copy is already M (fills and downgrades keep them
					// in lockstep), so repeat stores skip the L2 probe.
					l.Meta.st = psM
					if l2l := c.l2.Lookup(ref.Addr); l2l != nil {
						l2l.Meta.st = psM
					}
				}
				elapsed += c.sys.cfg.L1Lat
				if c.sys.checker != nil {
					c.sys.checker.Retire(c.id, ref.Addr, ref.Kind, false, false)
				}
				if c.sys.rec != nil {
					c.sys.onRetire(obs.LatL1Hit, eng.Now()+elapsed, uint64(c.sys.cfg.L1Lat))
				}
				c.pos++
				c.sys.metrics.L1Hits++
				continue
			}
			// Store to an S line: upgrade required (treated as a miss).
		} else if l2l := c.l2.Lookup(ref.Addr); l2l != nil &&
			(ref.Kind != trace.Store || l2l.Meta.st == psM || l2l.Meta.st == psE) {
			// L2 hit: fill L1 (silent L1 eviction).
			c.l2.Touch(l2l)
			if ref.Kind == trace.Store {
				l2l.Meta.st = psM
			}
			nl, _, _ := l1.Insert(ref.Addr)
			nl.Meta.st = l2l.Meta.st
			elapsed += c.sys.cfg.L1Lat + c.sys.cfg.L2Lat
			if c.sys.checker != nil {
				c.sys.checker.Retire(c.id, ref.Addr, ref.Kind, false, false)
			}
			if c.sys.rec != nil {
				c.sys.onRetire(obs.LatL2Hit, eng.Now()+elapsed, uint64(c.sys.cfg.L1Lat+c.sys.cfg.L2Lat))
			}
			c.pos++
			c.sys.metrics.L2Hits++
			continue
		}
		// Miss: issue a request after the accumulated hit time.
		kind := proto.GetS
		switch {
		case ref.Kind == trace.Ifetch:
			kind = proto.GetI
		case ref.Kind == trace.Store:
			kind = proto.GetX
			if l := c.l2.Lookup(ref.Addr); l != nil && l.Meta.st == psS {
				kind = proto.Upg
			} else if l := c.l1d.Lookup(ref.Addr); l != nil && l.Meta.st == psS {
				kind = proto.Upg
			}
		}
		c.reqSeq++
		c.outBuf = outstanding{
			addr:     ref.Addr,
			kind:     kind,
			ifetch:   ref.Kind == trace.Ifetch,
			wantAcks: -1,
			seq:      c.reqSeq,
			issuedAt: eng.Now() + elapsed,
		}
		c.out = &c.outBuf
		c.sys.metrics.PrivateMisses++
		eng.ScheduleAfter(elapsed+c.sys.cfg.L1Lat+c.sys.cfg.L2Lat, c, copSendReq, ref.Addr, 0)
		return
	}
}

func (c *coreNode) sendReq(addr uint64) {
	if c.evictBuf.Has(addr) {
		// Our own eviction notice for this block is still un-acked. A new
		// request now could re-acquire the block before the notice reaches
		// the home bank, which would then mistake the stale notice for the
		// fresh copy and untrack a live line (letting a later requester
		// take it exclusively alongside ours). Hold the request until the
		// acknowledgement drains the eviction buffer.
		c.out.nacked = true
		c.sys.metrics.Retries++
		c.sys.eng.ScheduleAfter(c.sys.cfg.NackRetry, c, copRetrySend, addr, 0)
		return
	}
	o := c.out
	b := c.sys.bankOf(addr)
	c.sys.net.SendEvent(c.id, b.id, mesh.CtrlBytes, mesh.Processor,
		b, bopHandleReq, addr, pk(int16(o.kind), int16(c.id), int16(o.seq), 0))
	if flt := c.sys.flt; flt != nil {
		// The request or its NACK may be lost on the wire: arm a
		// retransmit timer with bounded exponential backoff. Stale timers
		// (completed or granted requests) no-op via the seq guard.
		shift := uint(o.xmits)
		if shift > fault.MaxBackoffShift {
			shift = fault.MaxBackoffShift
		}
		if o.xmits < 255 {
			o.xmits++
		}
		c.sys.eng.ScheduleAfter(sim.Time(flt.ReqTimeout()<<shift), c,
			copReqTimeout, addr, pk(int16(o.seq), 0, 0, 0))
	}
}

// onReqTimeout retransmits a request whose acceptance we cannot
// confirm: no grant arrived within the backoff window, so either the
// request or a NACK was lost (or merely delayed — the home bank
// suppresses the duplicate by sequence number).
func (c *coreNode) onReqTimeout(addr uint64, seq uint16) {
	flt := c.sys.flt
	if flt == nil {
		return
	}
	o := c.out
	if o == nil || o.addr != addr || o.seq != seq || o.done || o.hasGrant {
		return
	}
	flt.Stats.ReqTimeouts++
	c.retries++
	c.sys.metrics.Retries++
	c.sendReq(addr)
}

// onNack retries the request after a backoff (the paper's NACK/retry
// traffic).
func (c *coreNode) onNack(addr uint64) {
	if c.out == nil || c.out.addr != addr || c.out.done {
		return
	}
	c.out.nacked = true
	c.retries++
	c.sys.metrics.Retries++
	c.sys.eng.ScheduleAfter(c.sys.cfg.NackRetry, c, copRetrySend, addr, 0)
}

// onGrant receives the home bank's response. viaMem marks a grant whose
// data came from a DRAM fetch (latency classification only).
func (c *coreNode) onGrant(addr uint64, st privState, dataMode, wantAcks int, notify, viaMem bool) {
	o := c.out
	if o == nil || o.addr != addr || o.done {
		panic(fmt.Sprintf("core %d: grant for unexpected block %#x", c.id, addr))
	}
	o.hasGrant = true
	o.grantState = st
	o.dataMode = dataMode
	o.wantAcks = wantAcks
	o.notifyHome = notify
	o.viaMem = viaMem
	if dataMode == 1 {
		o.hasData = true
	}
	c.maybeComplete()
}

// onOwnerData receives a three-hop data response from the owner or an
// elected sharer; lengthened marks a corrupted-shared supply.
func (c *coreNode) onOwnerData(addr uint64, st privState, lengthened bool) {
	o := c.out
	if o == nil || o.addr != addr || o.done {
		panic(fmt.Sprintf("core %d: owner data for unexpected block %#x", c.id, addr))
	}
	o.hasGrant = true
	o.grantState = st
	o.hasData = true
	o.threeHop = true
	if lengthened {
		o.lengthened = true
	}
	if o.wantAcks < 0 {
		o.wantAcks = 0
	}
	c.maybeComplete()
}

// onInvAck collects an invalidation acknowledgement (GetX/Upg path); one
// of them may carry the data block when the LLC could not supply it.
func (c *coreNode) onInvAck(addr uint64, withData bool) {
	o := c.out
	if o == nil || o.addr != addr || o.done {
		panic(fmt.Sprintf("core %d: inv-ack for unexpected block %#x", c.id, addr))
	}
	o.acks++
	if withData {
		o.hasData = true
		o.threeHop = true
	}
	c.maybeComplete()
}

func (c *coreNode) maybeComplete() {
	o := c.out
	if !o.hasGrant || o.done {
		return
	}
	if o.wantAcks >= 0 && o.acks < o.wantAcks {
		return
	}
	if o.dataMode != 0 && !o.hasData {
		return
	}
	o.done = true
	c.fill(o.addr, o.grantState, o.ifetch)
	if c.sys.checker != nil {
		c.sys.checker.Retire(c.id, o.addr, c.refs[c.pos].Kind, true,
			o.grantState == psE || o.grantState == psM)
	}
	if c.sys.rec != nil {
		c.recordMissRetire(o)
	}
	if o.notifyHome {
		b := c.sys.bankOf(o.addr)
		c.sys.net.SendEvent(c.id, b.id, mesh.CtrlBytes, mesh.Coherence, b, bopComplete, o.addr, 0)
	}
	c.out = nil
	c.pos++
	// Serve any forwarded request / invalidations that raced ahead.
	if f, ok := c.pendingFwd.Get(o.addr); ok {
		c.pendingFwd.Delete(o.addr)
		c.onFwd(o.addr, f.kind, f.requester, f.bank, f.lengthened)
	}
	if invs, ok := c.pendingInvs.Get(o.addr); ok {
		c.pendingInvs.Delete(o.addr)
		for _, iv := range invs {
			c.onInv(o.addr, iv.ackTo, iv.ackBank, iv.withData)
		}
	}
	c.step()
}

// fill installs a granted block into L2 and the appropriate L1,
// generating an eviction notice for a displaced L2 block.
func (c *coreNode) fill(addr uint64, st privState, ifetch bool) {
	l2l, ev, had := c.l2.Insert(addr)
	if had {
		// The directory tracks L2 contents: invalidate the L1 copy and
		// notify the home bank.
		c.l1d.Invalidate(ev.Addr)
		c.l1i.Invalidate(ev.Addr)
		if c.sys.checker != nil {
			c.sys.checker.Invalidate(c.id, ev.Addr)
		}
		c.sendEvict(ev.Addr, ev.Meta.st)
	}
	if l2l == nil {
		panic("core: L2 insert failed")
	}
	l2l.Meta.st = st
	l1 := &c.l1d
	if ifetch {
		l1 = &c.l1i
	}
	l1l, _, _ := l1.Insert(addr)
	l1l.Meta.st = st
}

func (c *coreNode) sendEvict(addr uint64, st privState) {
	c.evictBuf.Put(addr, evictEntry{st: st})
	c.transmitEvict(addr)
}

func (c *coreNode) transmitEvict(addr uint64) {
	e, ok := c.evictBuf.Get(addr)
	if !ok {
		return // invalidated while the notice was pending
	}
	kind := proto.PutS
	bytes := mesh.CtrlBytes
	switch e.st {
	case psE:
		kind = proto.PutE
	case psM:
		kind = proto.PutM
		bytes = mesh.DataBytes
	}
	if flt := c.sys.flt; flt != nil {
		// Every transmission carries a fresh sequence number; the home
		// bank drops reordered stale notices and the ack echoes the seq
		// so only the latest transmission can clear the buffer. A
		// backed-off retransmit timer heals lost notices and lost acks
		// (it no-ops once the slot is released).
		if e.xmits > 0 {
			flt.Stats.EvictRetransmits++
		}
		c.evictSeq++
		e.seq = c.evictSeq
		shift := uint(e.xmits)
		if shift > fault.MaxBackoffShift {
			shift = fault.MaxBackoffShift
		}
		if e.xmits < 255 {
			e.xmits++
		}
		c.evictBuf.Put(addr, e)
		c.sys.eng.ScheduleAfter(sim.Time(flt.EvictTimeout()<<shift), c, copTransmitEvict, addr, 0)
	}
	b := c.sys.bankOf(addr)
	c.sys.net.SendEvent(c.id, b.id, bytes, mesh.Writeback,
		b, bopHandleEvict, addr, pk(int16(kind), int16(c.id), int16(e.seq), 0))
}

func (c *coreNode) onEvictNack(addr uint64) {
	c.sys.metrics.Retries++
	c.sys.eng.ScheduleAfter(c.sys.cfg.NackRetry, c, copTransmitEvict, addr, 0)
}

func (c *coreNode) onEvictAck(addr uint64, seq uint16) {
	if flt := c.sys.flt; flt != nil {
		e, ok := c.evictBuf.Get(addr)
		if !ok {
			return // duplicate ack; the slot is already released
		}
		if e.seq != seq {
			// Ack for a superseded transmission: a newer notice is in
			// flight and must be acknowledged itself.
			flt.Stats.StaleEvictAcks++
			return
		}
	}
	c.evictBuf.Delete(addr)
}

// onFwd serves a request forwarded by the home bank: this core is the
// exclusive owner (or the elected sharer) and must supply the data.
// lengthened rides along so the requester can classify its fill.
func (c *coreNode) onFwd(addr uint64, kind proto.ReqKind, requester, bank int, lengthened bool) {
	if c.out != nil && c.out.addr == addr && !c.out.done && c.out.hasGrant && requester != c.id {
		// Our own granted fill for this block is still in flight: the
		// forward raced ahead of the data. Defer until completion. (If
		// the request is still being NACKed, or the forward names us as
		// requester, our copy sits in the eviction buffer — serve it now
		// or the home bank's transaction deadlocks.)
		c.pendingFwd.Put(addr, fwdReq{kind: kind, requester: requester, bank: bank, lengthened: lengthened})
		return
	}
	st := psI
	retained := true
	if l := c.l2.Lookup(addr); l != nil {
		st = l.Meta.st
		if kind == proto.GetX || kind == proto.Upg {
			c.l2.Invalidate(addr)
			c.l1d.Invalidate(addr)
			c.l1i.Invalidate(addr)
			if c.sys.checker != nil {
				c.sys.checker.Invalidate(c.id, addr)
			}
			retained = false
		} else {
			l.Meta.st = psS
			if dl := c.l1d.Lookup(addr); dl != nil {
				dl.Meta.st = psS
			}
			if il := c.l1i.Lookup(addr); il != nil {
				il.Meta.st = psS
			}
		}
	} else if be, ok := c.evictBuf.Get(addr); ok {
		// Late intervention: serve from the eviction buffer (GS320).
		st = be.st
		retained = false
	} else {
		// Stale forward: the oracle-based schemes (MgD regions, Stash
		// broadcast) can observe an eviction-buffer copy whose
		// acknowledgement is already in flight; by the time the forward
		// lands, the copy is gone. Ask the home bank to re-evaluate the
		// transaction against its now-current state.
		c.sys.net.SendEvent(c.id, bank, mesh.CtrlBytes, mesh.Coherence,
			&c.sys.banks[bank], bopFwdMiss, addr, pk(int16(kind), int16(requester), int16(c.id), 0))
		return
	}

	grant := psS
	if kind == proto.GetX || kind == proto.Upg {
		grant = psM
	}
	c.sys.net.SendEvent(c.id, requester, mesh.DataBytes, mesh.Processor,
		&c.sys.cores[requester], copOwnerData, addr, pk(int16(grant), b2i(lengthened), 0, 0))
	// Busy-clear to the home bank; an M->S downgrade ships the dirty data
	// back to the LLC with it.
	dirty := st == psM && kind.IsRead()
	bytes := mesh.CtrlBytes
	if dirty {
		bytes = mesh.DataBytes
	}
	c.sys.net.SendEvent(c.id, bank, bytes, mesh.Coherence,
		&c.sys.banks[bank], bopBusyClear, addr, pk(b2i(retained), b2i(dirty), 0, 0))
}

// onInv invalidates this core's copy. ackTo >= 0 directs the
// acknowledgement to a requesting core (GetX collection); ackBank >= 0
// directs it to the home bank (back-invalidation). withData elects this
// core to ship the block to the requester.
func (c *coreNode) onInv(addr uint64, ackTo, ackBank int, withData bool) {
	if c.out != nil && c.out.addr == addr && !c.out.done {
		if c.out.hasGrant {
			// Our fill was granted but the data is still in flight:
			// apply the invalidation right after completion.
			invs, _ := c.pendingInvs.Get(addr)
			c.pendingInvs.Put(addr, append(invs, invReq{ackTo: ackTo, ackBank: ackBank, withData: withData}))
			return
		}
		// Our request is still being NACKed: another core won the race.
		// Drop our copy now (below) and escalate a pending upgrade to a
		// full read-exclusive, since the data is gone. Deferring the ack
		// here would deadlock the winner's transaction.
		if c.out.kind == proto.Upg {
			c.out.kind = proto.GetX
		}
	}
	wasM := false
	if l, ok := c.l2.Invalidate(addr); ok {
		wasM = l.Meta.st == psM
	}
	c.l1d.Invalidate(addr)
	c.l1i.Invalidate(addr)
	if c.sys.checker != nil {
		c.sys.checker.Invalidate(c.id, addr)
	}
	if e, ok := c.evictBuf.Get(addr); ok {
		wasM = wasM || e.st == psM
		c.evictBuf.Delete(addr) // the pending notice becomes stale
	}
	if wasM && ackBank >= 0 {
		// Dirty data retrieved by a back-invalidation.
		c.sys.net.SendEvent(c.id, ackBank, mesh.DataBytes, mesh.Writeback,
			&c.sys.banks[ackBank], bopWbData, addr, 0)
	}
	switch {
	case ackTo >= 0:
		bytes := mesh.CtrlBytes
		if withData {
			bytes = mesh.DataBytes
		}
		c.sys.net.SendEvent(c.id, ackTo, bytes, mesh.Coherence,
			&c.sys.cores[ackTo], copInvAck, addr, pk(b2i(withData), 0, 0, 0))
	case ackBank >= 0:
		c.sys.net.SendEvent(c.id, ackBank, mesh.CtrlBytes, mesh.Coherence,
			&c.sys.banks[ackBank], bopBackInvAck, addr, 0)
	}
}

// probe reports the core's private state for a block (the broadcast
// oracle's snoop response). buffered marks a copy that lives only in the
// eviction buffer — its notice is in flight or awaiting acknowledgement —
// which the oracle must not let shadow a cache-resident copy.
func (c *coreNode) probe(addr uint64) (st privState, buffered bool) {
	if l := c.l2.Lookup(addr); l != nil {
		return l.Meta.st, false
	}
	if e, ok := c.evictBuf.Get(addr); ok {
		return e.st, true
	}
	return psI, false
}
