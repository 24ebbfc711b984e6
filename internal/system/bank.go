package system

import (
	"fmt"

	"tinydir/internal/bitvec"
	"tinydir/internal/blockmap"
	"tinydir/internal/cache"
	"tinydir/internal/mesh"
	"tinydir/internal/proto"
	"tinydir/internal/sim"
)

// txn is an in-flight transaction holding a block busy at its home bank.
type txn struct {
	kind      proto.ReqKind
	requester int
	// next is the entry committed when the transaction completes
	// (requester-completion transactions only; busy-clear transactions
	// compute it from the owner's flags).
	next proto.Entry
	// pre is the pre-transaction entry captured at dispatch; busy-clear
	// transactions derive the post state from it (the tracker's view may
	// already have changed by the time the busy-clear arrives).
	pre proto.Entry
	// backInvalAcks > 0 marks a back-invalidation transaction.
	backInvalAcks int
	// view is the tracker view captured at Begin; the dispatch event reads
	// it from here instead of a captured closure.
	view proto.View
	// grant is the private state promised by an in-flight memory fetch
	// (fetchRespond); the entry to commit rides in next.
	grant privState
	// fwdExcl marks cores whose forward for this transaction came back
	// empty (phantom sharers); the re-election skips them. Zero until the
	// first forward-miss.
	fwdExcl bitvec.Vec
	// startedAt is the transaction's arrival cycle, recorded for the
	// observability trace spans only (not serialized; instrumented runs
	// never restore from a checkpoint).
	startedAt sim.Time
	// gen stamps demand transactions in fault mode so the age-check
	// timer (bopTxnCheck) can tell this transaction from a later one
	// reusing the same busy slot. Zero outside fault mode.
	gen uint64
}

// bankNode is one LLC bank with its coherence-tracking slice. Like the
// cores, the banks live in one slice of the System, LLC header included.
type bankNode struct {
	sys     *System
	id      int
	llc     proto.LLC
	tracker proto.Tracker
	bankScratch

	// Fault-mode duplicate suppression (nil when faults are off): the
	// highest request / evict-notice sequence number observed per core,
	// -1 before the first. Messages whose seq is not strictly newer
	// (serial arithmetic) are retransmission or mesh-duplication echoes
	// and are dropped.
	reqSeen   []int32
	evictSeen []int32
	// txnGen stamps accepted demand transactions for bopTxnCheck.
	txnGen uint64
}

// bankScratch is a bank's per-run working storage: tables that start
// every run empty and grow with its footprint. It is the part of a bank
// that init carries over when a released machine's banks slab is reused,
// so a sweep's next machine starts with grown tables instead of
// regrowing them from nil.
type bankScratch struct {
	// busy maps block addresses to their in-flight transactions. It is
	// probed on every message arrival and holds a handful of entries.
	busy blockmap.Map[*txn]
	// freeTxns keeps released transaction records so the steady state
	// allocates none; holdersBuf backs backInvalidate's holder list.
	freeTxns   []*txn
	holdersBuf []int
}

// init sets up b, a bank of its System's slab that is either zero or
// emptied by release, as bank id. Only the scratch carries over.
func (b *bankNode) init(sys *System, id int) {
	*b = bankNode{sys: sys, id: id, bankScratch: b.bankScratch}
	b.llc.InitIn(&llcPool, sys.cfg.LLCSets, sys.cfg.LLCWays, cache.LRU)
	if sys.flt != nil {
		b.reqSeen = make([]int32, sys.cfg.Cores)
		b.evictSeen = make([]int32, sys.cfg.Cores)
		for i := range b.reqSeen {
			b.reqSeen[i] = -1
			b.evictSeen[i] = -1
		}
	}
	b.llc.SetIndexShift(sys.cfg.bankShift())
	b.tracker = sys.cfg.NewTracker(id)
	b.tracker.Attach((*bankEnv)(b))
}

// busyGet returns the in-flight transaction holding addr busy, or nil.
func (b *bankNode) busyGet(addr uint64) *txn {
	t, _ := b.busy.Get(addr)
	return t
}

// releaseBusy drops addr's busy marker and recycles its transaction in
// one step (for call sites that no longer need the record).
func (b *bankNode) releaseBusy(addr uint64) {
	if t := b.busyGet(addr); t != nil {
		b.busy.Delete(addr)
		b.freeTxn(t)
	}
}

// newTxn returns a zeroed transaction record, reusing a pooled one when
// available. Pooled records are indistinguishable from &txn{}.
func (b *bankNode) newTxn() *txn {
	if n := len(b.freeTxns); n > 0 {
		t := b.freeTxns[n-1]
		b.freeTxns[n-1] = nil
		b.freeTxns = b.freeTxns[:n-1]
		return t
	}
	return &txn{}
}

// freeTxn recycles a released transaction record, zeroing every field so
// the next newTxn sees a fresh record.
func (b *bankNode) freeTxn(t *txn) {
	*t = txn{}
	b.freeTxns = append(b.freeTxns, t)
}

// release hands the bank's LLC and tracker storage to their free lists
// and empties its scratch in place for the next machine built on this
// slab. A reset busy map behaves exactly like a fresh one. Transactions
// still busy (a run cut short by its event cap) are dropped, not
// recycled; pooled records are already zeroed.
func (b *bankNode) release() {
	b.llc.Release(&llcPool)
	b.tracker.ReleaseStorage()
	b.busy.Reset()
}

// bankEnv adapts bankNode to proto.BankEnv.
type bankEnv bankNode

func (e *bankEnv) LLC() *proto.LLC         { return &e.llc }
func (e *bankEnv) Cores() int              { return e.sys.cfg.Cores }
func (e *bankEnv) Now() sim.Time           { return e.sys.eng.Now() }
func (e *bankEnv) BankID() int             { return e.id }
func (e *bankEnv) BankShift() uint         { return e.sys.cfg.bankShift() }
func (e *bankEnv) IsBusy(addr uint64) bool { return (*bankNode)(e).busy.Has(addr) }
func (e *bankEnv) FindHolders(addr uint64) proto.Entry {
	return (*bankNode)(e).sys.findHolders(addr)
}

// dataLine returns the valid LLC line holding addr as a data block
// (skipping a spilled tracking entry with the same tag).
func (b *bankNode) dataLine(addr uint64) *proto.LLCLine {
	tags := b.llc.TagsIn(addr)
	for w := range tags {
		if tags[w] == addr {
			l := &b.llc.LinesIn(addr)[w]
			if l.Valid && l.Addr == addr && !l.Meta.Spill {
				return l
			}
		}
	}
	return nil
}

// seqNewer reports whether seq is strictly newer than the last-seen
// value (serial arithmetic over the 16-bit space; seen < 0 means
// nothing seen yet).
func seqNewer(seq uint16, seen int32) bool {
	if seen < 0 {
		return true
	}
	return int16(seq-uint16(seen)) > 0
}

// handleReq processes a demand request at the home bank. seq is the
// requester's per-request sequence number (fault mode only; dedup is
// checked before the busy test so a timeout retransmit that crossed
// the in-flight grant dies here instead of NACK-looping).
func (b *bankNode) handleReq(addr uint64, kind proto.ReqKind, c int, seq uint16) {
	m := &b.sys.metrics
	flt := b.sys.flt
	if flt != nil && !seqNewer(seq, b.reqSeen[c]) {
		// Duplicate or stale copy of a request this bank already
		// accepted (mesh duplication, or a timeout retransmit racing the
		// response): a second transaction would hand out a second grant
		// the core does not expect.
		flt.Stats.DupReqs++
		return
	}
	if b.busy.Has(addr) {
		m.Nacks++
		b.sys.net.SendEvent(b.id, c, mesh.CtrlBytes, mesh.Processor, &b.sys.cores[c], copNack, addr, 0)
		return
	}
	dl := b.dataLine(addr)
	llcHit := dl != nil
	view := b.tracker.Begin(addr, kind, llcHit)
	if flt != nil && view.E.State != proto.Unowned && flt.ECCDraw(b.sys.cfg.Cores+b.id) {
		// The parity/ECC check over the tracked sharer vector failed:
		// the holder set cannot be trusted. Recover conservatively —
		// NACK the requester and invalidate-and-refetch (never proceed
		// silently on corrupted state).
		m.Nacks++
		b.sys.net.SendEvent(b.id, c, mesh.CtrlBytes, mesh.Processor, &b.sys.cores[c], copNack, addr, 0)
		b.eccRecover(addr, kind, c)
		return
	}

	m.LLCAccesses++
	if !llcHit {
		m.LLCMisses++
	}
	m.LLCTagReads++
	if llcHit {
		m.LLCDataReads++
		dl.Meta.StatAccesses++
		if kind.IsRead() && view.E.State == proto.Shared {
			dl.Meta.StatSharedReads++
		}
		b.llc.Touch(dl)
	}

	// Lengthened critical path (Figs. 6/14/15): a read to a shared block
	// that the 2x baseline would serve from the LLC in two hops, but this
	// scheme must forward to an elected sharer.
	if kind.IsRead() && view.E.State == proto.Shared && llcHit && !view.SupplyFromLLC {
		if kind == proto.GetI {
			m.LengthenedCode++
		} else {
			m.LengthenedData++
		}
		dl.Meta.Lengthened = true
		if b.sys.checker != nil {
			b.sys.checker.Lengthened(addr, dl.Meta.Corrupted)
		}
	}
	if kind.IsRead() && view.E.State == proto.Shared && view.SpillHit {
		m.SpillAvoided++
	}

	t := b.newTxn()
	t.kind, t.requester, t.view, t.startedAt = kind, c, view, b.sys.eng.Now()
	if flt != nil {
		// Acceptance: record the sequence number for duplicate
		// suppression and arm the transaction age check.
		b.reqSeen[c] = int32(seq)
		b.txnGen++
		t.gen = b.txnGen
		b.sys.eng.ScheduleAfter(sim.Time(flt.BankTimeout()), b, bopTxnCheck, addr, int64(t.gen))
	}
	b.busy.Put(addr, t)

	lat := b.sys.cfg.LLCTagLat + sim.Time(view.ExtraLatency)
	if llcHit {
		lat += b.sys.cfg.LLCDataLat
	}
	if view.NeedBroadcast {
		// Broadcast recovery (Stash): query every core and collect snoop
		// responses before proceeding.
		m.Broadcasts++
		cores := b.sys.cfg.Cores
		for i := 0; i < cores; i++ {
			b.sys.net.Account(b.id, i, mesh.BroadcastPerDest, mesh.Coherence)
			b.sys.net.Account(i, b.id, mesh.CtrlBytes, mesh.Coherence)
		}
		lat += sim.Time(2 * b.sys.maxDist * mesh.HopCycles)
	}
	b.sys.eng.ScheduleAfter(lat, b, bopDispatch, addr, 0)
}

func (b *bankNode) dispatch(addr uint64, kind proto.ReqKind, c int, view proto.View) {
	if t := b.busyGet(addr); t != nil {
		t.pre = view.E
	}
	e := view.E
	switch kind {
	case proto.GetS, proto.GetI:
		b.dispatchRead(addr, kind, c, view)
	case proto.GetX, proto.Upg:
		b.dispatchWrite(addr, kind, c, view)
	default:
		panic(fmt.Sprintf("bank %d: dispatch of %v", b.id, e.State))
	}
}

func (b *bankNode) dispatchRead(addr uint64, kind proto.ReqKind, c int, view proto.View) {
	e := view.E
	switch e.State {
	case proto.Unowned:
		grant := psE
		next := proto.Entry{State: proto.Exclusive, Owner: c}
		if kind == proto.GetI {
			grant = psS
			next = b.sharedEntry(c)
		}
		b.supplyFromLLCOrMem(addr, c, grant, next, kind)
	case proto.Exclusive:
		// Three-hop: forward to the owner; commit at busy-clear.
		b.forward(addr, kind, c, e.Owner, false)
	case proto.Shared:
		next := e
		next.Sharers.Set(c)
		dl := b.dataLine(addr)
		if dl != nil && !view.SupplyFromLLC {
			// Corrupted-shared: elect a sharer to supply (three hops).
			t := b.busyGet(addr)
			s := b.electSharer(e.Sharers, c, t.fwdExcl)
			if s >= 0 {
				b.forward(addr, kind, c, s, true)
				return
			}
			// The only sharer is the requester itself (racing eviction);
			// fall through to a memory supply.
			b.fetchRespond(addr, c, psS, next, kind)
			return
		}
		if dl != nil {
			b.respond(addr, c, psS, 1, 0, false, false)
			b.commitAndRelease(addr, kind, c, next, dl)
			return
		}
		// Tracked shared but not LLC-resident: clean copies exist, memory
		// is current.
		b.fetchRespond(addr, c, psS, next, kind)
	}
}

func (b *bankNode) dispatchWrite(addr uint64, kind proto.ReqKind, c int, view proto.View) {
	e := view.E
	switch e.State {
	case proto.Unowned:
		next := proto.Entry{State: proto.Exclusive, Owner: c}
		b.supplyFromLLCOrMem(addr, c, psM, next, kind)
	case proto.Exclusive:
		b.forward(addr, kind, c, e.Owner, false)
	case proto.Shared:
		t := b.busyGet(addr)
		needData := kind == proto.GetX || !e.Sharers.Test(c)
		dl := b.dataLine(addr)
		dataFromLLC := needData && view.SupplyFromLLC && dl != nil
		var nAcks int
		elect := -1
		e.Sharers.ForEach(func(s int) {
			if s != c {
				nAcks++
			}
		})
		if needData && !dataFromLLC {
			elect = b.electSharer(e.Sharers, c, t.fwdExcl)
		}
		if needData && !dataFromLLC && elect < 0 {
			// No other sharer can supply; clean data lives in memory.
			next := proto.Entry{State: proto.Exclusive, Owner: c}
			b.fetchRespond(addr, c, psM, next, kind)
			return
		}
		t.next = proto.Entry{State: proto.Exclusive, Owner: c}
		if nAcks == 0 {
			// Silent upgrade: the requester is the sole sharer.
			mode := 0
			if dataFromLLC {
				mode = 1
			}
			b.respond(addr, c, psM, mode, 0, false, false)
			b.commitAndRelease(addr, kind, c, t.next, dl)
			return
		}
		// Grant plus invalidations; the requester collects the acks and
		// notifies the home when done (the block stays busy).
		mode := 0
		switch {
		case dataFromLLC:
			mode = 1
		case needData:
			mode = 2 // elected sharer's ack carries the block
		}
		b.respond(addr, c, psM, mode, nAcks, true, false)
		e.Sharers.ForEach(func(s int) {
			if s == c {
				return
			}
			withData := s == elect
			b.sys.net.SendEvent(b.id, s, mesh.CtrlBytes, mesh.Coherence,
				&b.sys.cores[s], copInv, addr, pk(int16(c), -1, b2i(withData), 0))
		})
	}
}

// sharedEntry builds a Shared entry with one sharer.
func (b *bankNode) sharedEntry(c int) proto.Entry {
	v := bitvec.New(b.sys.cfg.Cores)
	v.Set(c)
	return proto.Entry{State: proto.Shared, Sharers: v}
}

// electSharer picks the sharer that supplies data for a corrupted-shared
// block. The election starts just above the requester's id and wraps, so
// supply duty rotates with the requester instead of always falling on the
// lowest-numbered sharer (which would skew the Fig. 5 traffic split toward
// low tiles). excl masks out sharers a previous forward for this
// transaction already found empty-handed (phantom sharers of lossy entry
// formats); it may be the zero Vec. Returns -1 when no electable sharer
// remains.
func (b *bankNode) electSharer(sharers bitvec.Vec, not int, excl bitvec.Vec) int {
	ok := func(s int) bool {
		return s != not && (excl.Len() == 0 || !excl.Test(s))
	}
	for s := sharers.Next(not); s >= 0; s = sharers.Next(s) {
		if ok(s) {
			return s
		}
	}
	for s := sharers.First(); s >= 0 && s < not; s = sharers.Next(s) {
		if ok(s) {
			return s
		}
	}
	return -1
}

// supplyFromLLCOrMem answers a request to an unowned block.
func (b *bankNode) supplyFromLLCOrMem(addr uint64, c int, grant privState, next proto.Entry, kind proto.ReqKind) {
	if dl := b.dataLine(addr); dl != nil {
		b.respond(addr, c, grant, 1, 0, false, false)
		b.commitAndRelease(addr, kind, c, next, dl)
		return
	}
	b.fetchRespond(addr, c, grant, next, kind)
}

// fetchRespond fetches the block from memory, fills the LLC, responds,
// and commits. The block stays busy for the duration; the grant and the
// entry to commit ride in the transaction until the data returns
// (memFetchDone).
func (b *bankNode) fetchRespond(addr uint64, c int, grant privState, next proto.Entry, kind proto.ReqKind) {
	t := b.busyGet(addr)
	if t == nil || t.kind != kind || t.requester != c {
		panic(fmt.Sprintf("bank %d: fetch for mismatched transaction %#x", b.id, addr))
	}
	t.grant = grant
	t.next = next
	tile := b.sys.memTile(addr)
	b.sys.metrics.MemReads++
	b.sys.net.SendEvent(b.id, tile, mesh.CtrlBytes, mesh.Processor, b, bopMemReadArrive, addr, 0)
}

// memFetchDone completes a fetchRespond once the block lands back at the
// bank: fill the LLC (NACK the requester if no way can be allocated),
// respond and commit.
func (b *bankNode) memFetchDone(addr uint64) {
	t := b.busyGet(addr)
	if t == nil {
		panic(fmt.Sprintf("bank %d: fetched data for idle block %#x", b.id, addr))
	}
	line := b.fill(addr)
	if line == nil {
		// Could not allocate an LLC way (every candidate busy): NACK so
		// the requester retries.
		b.traceDone(addr, "nack")
		b.busy.Delete(addr)
		b.sys.metrics.Nacks++
		if b.sys.flt != nil {
			// The retry reuses this request's sequence number: roll the
			// dedup watermark back one so it passes (stale copies of
			// earlier requests remain not-newer and still die).
			b.reqSeen[t.requester] = int32(uint16(b.reqSeen[t.requester]) - 1)
		}
		b.sys.net.SendEvent(b.id, t.requester, mesh.CtrlBytes, mesh.Processor,
			&b.sys.cores[t.requester], copNack, addr, 0)
		b.freeTxn(t)
		return
	}
	b.respond(addr, t.requester, t.grant, 1, 0, false, true)
	b.commitAndRelease(addr, t.kind, t.requester, t.next, line)
}

// forward sends a three-hop forward to the owner (or elected sharer);
// the commit happens at busy-clear. lengthened marks a corrupted-shared
// supply so the requester can classify the resulting fill; it rides in an
// otherwise-unused pack field and changes no timing or traffic.
func (b *bankNode) forward(addr uint64, kind proto.ReqKind, c, owner int, lengthened bool) {
	b.sys.metrics.Forwards++
	b.sys.net.SendEvent(b.id, owner, mesh.CtrlBytes, mesh.Coherence,
		&b.sys.cores[owner], copFwd, addr, pk(int16(kind), int16(c), int16(b.id), b2i(lengthened)))
}

// respond sends the home bank's grant to the requester. viaMem marks data
// fetched from DRAM (latency classification only); it shares the fourth
// pack field with notify.
func (b *bankNode) respond(addr uint64, c int, grant privState, dataMode, wantAcks int, notify, viaMem bool) {
	bytes := mesh.CtrlBytes
	if dataMode == 1 {
		bytes = mesh.DataBytes
	}
	b.sys.net.SendEvent(b.id, c, bytes, mesh.Processor, &b.sys.cores[c], copGrant, addr,
		pk(int16(grant), int16(dataMode), int16(wantAcks), b2i(notify)|b2i(viaMem)<<1))
}

// commitAndRelease commits the post-transaction state now and releases
// the busy marker one cycle after the response lands at the requester
// (so a forward can never outrun the fill). dl is addr's LLC data line
// if the caller already located it in this event (nil otherwise); the
// LLC cannot have changed since, so the lookup need not be repeated.
func (b *bankNode) commitAndRelease(addr uint64, kind proto.ReqKind, from int, next proto.Entry, dl *proto.LLCLine) {
	b.traceDone(addr, "")
	b.commit(addr, kind, from, next, dl)
	release := b.sys.net.Latency(b.id, from) + 1
	b.sys.eng.ScheduleAfter(release, b, bopRelease, addr, 0)
}

// onFwdMiss restarts a transaction whose forward found no copy at the
// presumed owner — a stale oracle view that raced an in-flight eviction
// acknowledgement, or a phantom sharer introduced by a lossy entry format
// (limited-pointer overflow, coarse vector). The block is still busy;
// missedAt is excluded from re-election (each restart shrinks the electable
// set, so the loop terminates in the memory-supply fallback at the latest)
// and the transaction is re-evaluated against the tracker's current state.
func (b *bankNode) onFwdMiss(addr uint64, kind proto.ReqKind, c, missedAt int) {
	t := b.busyGet(addr)
	if t == nil {
		panic(fmt.Sprintf("bank %d: forward-miss for idle block %#x", b.id, addr))
	}
	b.sys.metrics.FwdMisses++
	if missedAt >= 0 {
		if t.fwdExcl.Len() == 0 {
			t.fwdExcl = bitvec.New(b.sys.cfg.Cores)
		}
		t.fwdExcl.Set(missedAt)
	}
	dl := b.dataLine(addr)
	view := b.tracker.Begin(addr, kind, dl != nil)
	lat := b.sys.cfg.LLCTagLat + sim.Time(view.ExtraLatency)
	if dl != nil {
		lat += b.sys.cfg.LLCDataLat
	}
	t.view = view
	b.sys.eng.ScheduleAfter(lat, b, bopDispatch, addr, 0)
}

// onBusyClear completes a three-hop transaction.
func (b *bankNode) onBusyClear(addr uint64, retained, copybackDirty bool) {
	t := b.busyGet(addr)
	if t == nil {
		panic(fmt.Sprintf("bank %d: busy-clear for idle block %#x", b.id, addr))
	}
	dl := b.dataLine(addr)
	if copybackDirty {
		if dl != nil {
			dl.Meta.Dirty = true
			b.sys.metrics.LLCDataWrites++
		} else {
			b.sys.mem.Write(addr)
		}
	}
	var next proto.Entry
	if t.kind.IsRead() {
		// The previous owner (or elected sharer) may retain an S copy.
		v := bitvec.New(b.sys.cfg.Cores)
		switch t.pre.State {
		case proto.Shared:
			v = t.pre.Sharers
		case proto.Exclusive:
			if retained {
				v.Set(t.pre.Owner)
			}
		}
		v.Set(t.requester)
		next = proto.Entry{State: proto.Shared, Sharers: v}
	} else {
		next = proto.Entry{State: proto.Exclusive, Owner: t.requester}
	}
	b.traceDone(addr, "")
	b.commit(addr, t.kind, t.requester, next, dl)
	b.busy.Delete(addr)
	b.freeTxn(t)
}

// onComplete finishes a requester-completion transaction (GetX/Upg with
// invalidations).
func (b *bankNode) onComplete(addr uint64) {
	t := b.busyGet(addr)
	if t == nil {
		panic(fmt.Sprintf("bank %d: completion for idle block %#x", b.id, addr))
	}
	b.traceDone(addr, "")
	b.commit(addr, t.kind, t.requester, t.next, b.dataLine(addr))
	b.busy.Delete(addr)
	b.freeTxn(t)
}

// commit pushes the post-transaction state into the tracker and executes
// the side effects. dl is addr's LLC data line as located by the caller
// within this same event, or nil when the block is not LLC-resident
// (three-hop paths may commit without a line for schemes that keep state
// outside the LLC).
func (b *bankNode) commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry, dl *proto.LLCLine) {
	if dl != nil && next.State == proto.Shared {
		if n := next.Sharers.Count(); n > dl.Meta.MaxSharers {
			dl.Meta.MaxSharers = n
		}
	} else if dl != nil && next.State == proto.Exclusive && dl.Meta.MaxSharers < 1 {
		dl.Meta.MaxSharers = 1
	}
	eff := b.tracker.Commit(addr, kind, from, next)
	b.apply(eff)
}

// apply executes tracker side effects.
func (b *bankNode) apply(eff proto.Effects) {
	m := &b.sys.metrics
	m.LLCStateWrites += uint64(eff.LLCStateWrites)
	for _, core := range eff.ReconFromCores {
		b.sys.net.Account(core, b.id, mesh.ReconBitsBytes, mesh.Writeback)
		m.ReconMsgs++
	}
	for _, wb := range eff.LLCWritebacks {
		b.sys.net.Account(b.id, b.sys.memTile(wb), mesh.DataBytes, mesh.Writeback)
		b.sys.mem.Write(wb)
	}
	for _, v := range eff.BackInvals {
		b.backInvalidate(v)
	}
}

// backInvalidate invalidates every private copy of a victim block whose
// tracking entry was displaced. The block is held busy until all
// acknowledgements return.
func (b *bankNode) backInvalidate(v proto.Victim) {
	holders := b.holdersBuf[:0]
	switch v.E.State {
	case proto.Exclusive:
		holders = append(holders, v.E.Owner)
	case proto.Shared:
		v.E.Sharers.ForEach(func(s int) { holders = append(holders, s) })
	}
	b.holdersBuf = holders
	if len(holders) == 0 {
		return
	}
	b.sys.metrics.BackInvals++
	if b.busy.Has(v.Addr) {
		panic(fmt.Sprintf("bank %d: back-invalidation of busy block %#x", b.id, v.Addr))
	}
	t := b.newTxn()
	t.backInvalAcks, t.startedAt = len(holders), b.sys.eng.Now()
	b.busy.Put(v.Addr, t)
	for _, h := range holders {
		b.sys.net.SendEvent(b.id, h, mesh.CtrlBytes, mesh.Coherence,
			&b.sys.cores[h], copInv, v.Addr, pk(-1, int16(b.id), 0, 0))
	}
}

func (b *bankNode) onBackInvAck(addr uint64) {
	t := b.busyGet(addr)
	if t == nil || t.backInvalAcks == 0 {
		panic(fmt.Sprintf("bank %d: unexpected back-inval ack for %#x", b.id, addr))
	}
	t.backInvalAcks--
	if t.backInvalAcks == 0 {
		b.traceDone(addr, "back-inval")
		b.busy.Delete(addr)
		b.freeTxn(t)
	}
}

// onWbData receives dirty data retrieved by a back-invalidation.
func (b *bankNode) onWbData(addr uint64) {
	if dl := b.dataLine(addr); dl != nil && !dl.Meta.Corrupted {
		dl.Meta.Dirty = true
		b.sys.metrics.LLCDataWrites++
		return
	}
	b.sys.net.Account(b.id, b.sys.memTile(addr), mesh.DataBytes, mesh.Writeback)
	b.sys.mem.Write(addr)
}

// eccRecover heals a detected sharer-vector corruption: drop the
// untrusted tracking entry and broadcast an invalidation to every core
// (the vector cannot tell us which ones hold the block), holding the
// block busy until all acknowledgements return. Dirty data rides back
// on the existing back-invalidation writeback path, so nothing is lost.
func (b *bankNode) eccRecover(addr uint64, kind proto.ReqKind, c int) {
	flt := b.sys.flt
	eff := b.tracker.Commit(addr, kind, c, proto.Entry{State: proto.Unowned})
	b.apply(eff)
	cores := b.sys.cfg.Cores
	flt.Stats.ECCInvals += uint64(cores)
	t := b.newTxn()
	t.backInvalAcks, t.startedAt = cores, b.sys.eng.Now()
	b.busy.Put(addr, t)
	for i := 0; i < cores; i++ {
		b.sys.net.SendEvent(b.id, i, mesh.CtrlBytes, mesh.Coherence,
			&b.sys.cores[i], copInv, addr, pk(-1, int16(b.id), 0, 0))
	}
}

// onTxnCheck audits a demand transaction's age (fault mode): protected
// message classes guarantee forward progress, so a transaction alive a
// full BankTimeout after acceptance is counted, not killed — a true
// wedge surfaces through the stall watchdog and DumpStall.
func (b *bankNode) onTxnCheck(addr uint64, gen uint64) {
	flt := b.sys.flt
	if flt == nil {
		return
	}
	if t := b.busyGet(addr); t != nil && t.gen == gen {
		flt.Stats.BankTxnLate++
	}
}

// handleEvict processes an eviction notice from a private cache. seq is
// the notice's per-transmission sequence number (fault mode only).
func (b *bankNode) handleEvict(addr uint64, kind proto.ReqKind, c int, seq uint16) {
	m := &b.sys.metrics
	if flt := b.sys.flt; flt != nil {
		if !seqNewer(seq, b.evictSeen[c]) {
			// Mesh duplicate, or a retransmission overtaken by a newer
			// one: drop *without* acknowledging, so a stale notice can
			// never clear a newer eviction-buffer slot at the core.
			flt.Stats.DupEvicts++
			return
		}
		b.evictSeen[c] = int32(seq)
	}
	if b.busy.Has(addr) {
		m.Nacks++
		b.sys.net.SendEvent(b.id, c, mesh.CtrlBytes, mesh.Writeback,
			&b.sys.cores[c], copEvictNack, addr, 0)
		return
	}
	dl := b.dataLine(addr)
	view := b.tracker.Begin(addr, kind, dl != nil)
	e := view.E

	holds := (e.State == proto.Exclusive && e.Owner == c) ||
		(e.State == proto.Shared && e.Sharers.Test(c))
	if holds {
		var next proto.Entry
		if e.State == proto.Shared {
			v := e.Sharers
			v.Clear(c)
			if v.Empty() {
				next = proto.Entry{State: proto.Unowned}
			} else {
				next = proto.Entry{State: proto.Shared, Sharers: v}
			}
		} else {
			next = proto.Entry{State: proto.Unowned}
		}
		if kind == proto.PutM {
			if dl != nil {
				dl.Meta.Dirty = true
				m.LLCDataWrites++
			} else if dl = b.fill(addr); dl != nil {
				dl.Meta.Dirty = true
				m.LLCDataWrites++
			} else {
				b.sys.net.Account(b.id, b.sys.memTile(addr), mesh.DataBytes, mesh.Writeback)
				b.sys.mem.Write(addr)
			}
		}
		b.commit(addr, kind, c, next, dl)
	}
	// Acknowledge so the core releases its eviction buffer. Stale
	// notices (the copy was invalidated while the notice was in flight)
	// are acknowledged without a commit. The ack echoes the notice's
	// sequence number: the core only trusts acks for its latest
	// transmission.
	b.sys.net.SendEvent(b.id, c, mesh.CtrlBytes, mesh.Writeback,
		&b.sys.cores[c], copEvictAck, addr, pk(int16(seq), 0, 0, 0))
}

// fill allocates an LLC line for addr (fill on miss / writeback
// allocate), executing victim side effects. Returns nil when every
// candidate way belongs to a busy block.
func (b *bankNode) fill(addr uint64) *proto.LLCLine {
	if dl := b.dataLine(addr); dl != nil {
		b.llc.Touch(dl)
		return dl
	}
	v := b.llc.VictimWhere(addr, func(l *proto.LLCLine) bool {
		return l.Valid && (*bankEnv)(b).IsBusy(l.Addr)
	})
	if v == nil {
		return nil
	}
	if v.Valid {
		b.harvestLineStats(&v.Meta)
		eff := b.tracker.OnLLCVictim(v)
		b.apply(eff)
		if v.Meta.Dirty && !v.Meta.Spill && !v.Meta.Corrupted {
			b.sys.net.Account(b.id, b.sys.memTile(v.Addr), mesh.DataBytes, mesh.Writeback)
			b.sys.mem.Write(v.Addr)
		}
		b.sys.metrics.LLCEvictions++
	}
	b.llc.Replace(v, addr)
	b.sys.metrics.LLCFills++
	return v
}

// harvestLineStats folds one retiring LLC line's census counters into the
// Fig. 2 / 7 / 8 histograms.
func (b *bankNode) harvestLineStats(meta *proto.LLCMeta) {
	m := &b.sys.metrics
	m.AllocatedBlocks++
	switch {
	case meta.MaxSharers >= 17:
		m.SharerBins[3]++
	case meta.MaxSharers >= 9:
		m.SharerBins[2]++
	case meta.MaxSharers >= 5:
		m.SharerBins[1]++
	case meta.MaxSharers >= 2:
		m.SharerBins[0]++
	}
	if meta.Lengthened {
		m.LengthenedBlocks++
	}
}

// finalHarvest sweeps lines still resident at end of simulation.
func (b *bankNode) finalHarvest() {
	b.llc.ForEach(func(l *proto.LLCLine) {
		if !l.Meta.Spill {
			b.harvestLineStats(&l.Meta)
		}
	})
}
