package system

// Checkpoint/restore of a complete simulated machine (the tentpole of the
// snapshot subsystem; format documented in DESIGN.md). Save serializes the
// event heap, mesh, DRAM, every core's private hierarchy and protocol
// tables, every bank's LLC + busy table + tracker, and the accumulated
// metrics. Restore rebuilds that state into a freshly constructed System
// wired with the identical Config and traces; a context digest recorded at
// save time makes restoring into a different machine or trace fail loudly.
//
// Pending events reference their handler components by a stable id: core i
// is i, bank i is Cores+i, and the memory controller set is 2*Cores. These
// are the only components that ever receive pooled events.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"sort"

	"tinydir/internal/blockmap"
	"tinydir/internal/cache"
	"tinydir/internal/dram"
	"tinydir/internal/mesh"
	"tinydir/internal/proto"
	"tinydir/internal/sim"
	"tinydir/internal/snapshot"
)

// Section ids, in file order.
const (
	secEngine  = 1
	secMetrics = 2
	secMesh    = 3
	secDram    = 4
	secCores   = 5
	secBanks   = 6
	// secFault is present only when fault injection is active; the fault
	// configuration is part of the context digest, so saver and restorer
	// always agree on whether it exists.
	secFault = 7
)

// StateDigest hashes everything that must match between the saving and the
// restoring machine: the structural configuration, the tracker scheme, and
// the full trace contents. Policy objects (NewTracker, Checker) cannot be
// hashed; the tracker's Name plus the per-cache geometry checks inside
// LoadState catch configuration drift in practice.
func (s *System) StateDigest() [32]byte {
	h := sha256.New()
	cfg := s.cfg
	fmt.Fprintf(h, "cores=%d l1=%dx%d l2=%dx%d llc=%dx%d mch=%d lat=%d,%d,%d,%d,%d tracker=%s\n",
		cfg.Cores, cfg.L1Sets, cfg.L1Ways, cfg.L2Sets, cfg.L2Ways, cfg.LLCSets, cfg.LLCWays,
		cfg.MemChannels, cfg.L1Lat, cfg.L2Lat, cfg.LLCTagLat, cfg.LLCDataLat, cfg.NackRetry,
		s.banks[0].tracker.Name())
	if s.flt != nil {
		// The fault configuration changes event order, so it is part of
		// the machine identity (fault-free machines hash as before).
		fmt.Fprintf(h, "faults=%+v\n", cfg.Faults)
	}
	var buf [11]byte
	for i := range s.cores {
		c := &s.cores[i]
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(c.refs)))
		h.Write(buf[:8])
		for _, ref := range c.refs {
			binary.LittleEndian.PutUint64(buf[:8], ref.Addr)
			buf[8] = byte(ref.Kind)
			buf[9] = ref.Gap
			buf[10] = 0
			h.Write(buf[:])
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// handlerID maps an event-handler component to its stable id.
func (s *System) handlerID(h sim.Handler) (uint64, error) {
	switch v := h.(type) {
	case *coreNode:
		return uint64(v.id), nil
	case *bankNode:
		return uint64(s.cfg.Cores + v.id), nil
	case *dram.Memory:
		if v == s.mem {
			return uint64(2 * s.cfg.Cores), nil
		}
	}
	return 0, fmt.Errorf("system: event handler %T has no stable id", h)
}

// handlerByID inverts handlerID.
func (s *System) handlerByID(id uint64) (sim.Handler, error) {
	n := uint64(s.cfg.Cores)
	switch {
	case id < n:
		return &s.cores[id], nil
	case id < 2*n:
		return &s.banks[id-n], nil
	case id == 2*n:
		return s.mem, nil
	}
	return nil, fmt.Errorf("system: handler id %d out of range", id)
}

// Save serializes the complete machine state to out. It must be called
// between events (e.g. after RunEvents returns), never from inside one.
func (s *System) Save(out io.Writer) error {
	s.mustLive("Save")
	w := snapshot.NewWriter(snapshot.FormatVersion, s.StateDigest())

	w.Section(secEngine)
	now, seq, nexec, events := s.eng.SaveState()
	w.U64(uint64(now))
	w.U64(seq)
	w.U64(nexec)
	w.Int(len(events))
	for _, ev := range events {
		id, err := s.handlerID(ev.H)
		if err != nil {
			return err
		}
		w.U64(uint64(ev.At))
		w.U64(ev.Seq)
		w.U64(id)
		w.Int(ev.Op)
		w.U64(ev.Addr)
		w.I64(ev.Arg)
	}
	w.Int(s.running)

	w.Section(secMetrics)
	saveMetrics(w, &s.metrics)

	w.Section(secMesh)
	ms := s.net.SaveState()
	for _, v := range ms.Traffic {
		w.U64(v)
	}
	for _, v := range ms.Msgs {
		w.U64(v)
	}

	w.Section(secDram)
	dst := s.mem.SaveState()
	w.Int(len(dst.Channels))
	for _, ch := range dst.Channels {
		for _, bk := range ch.Banks {
			w.I64(bk.OpenRow)
			w.U64(uint64(bk.FreeAt))
		}
		w.U64(uint64(ch.BusFree))
		w.Bool(ch.Kicked)
		w.Int(len(ch.Pending))
		for _, rq := range ch.Pending {
			w.U64(rq.Blk)
			w.U64(uint64(rq.Arrive))
			w.Bool(rq.IsWrite)
			if rq.H == nil {
				w.Bool(false)
				continue
			}
			id, err := s.handlerID(rq.H)
			if err != nil {
				return err
			}
			w.Bool(true)
			w.U64(id)
			w.Int(rq.Op)
			w.I64(rq.Arg)
		}
	}
	w.U64(dst.Stats.Reads)
	w.U64(dst.Stats.Writes)
	w.U64(dst.Stats.RowHits)
	w.U64(dst.Stats.RowMisses)

	w.Section(secCores)
	for i := range s.cores {
		c := &s.cores[i]
		c.saveState(w)
	}

	w.Section(secBanks)
	for i := range s.banks {
		b := &s.banks[i]
		b.saveState(w)
	}

	if s.flt != nil {
		w.Section(secFault)
		st := s.flt.SaveState()
		w.Int(len(st))
		for _, v := range st {
			w.U64(v)
		}
	}

	return w.Finish(out)
}

// Restore loads a snapshot into s, which must be a freshly constructed
// System wired with the same Config and the same traces as the machine that
// produced it (verified via the context digest). After Restore, Complete
// continues the run exactly where Save left off.
func (s *System) Restore(in io.Reader) error {
	s.mustLive("Restore")
	r, err := snapshot.NewReader(in)
	if err != nil {
		return err
	}
	if got, want := r.Digest(), s.StateDigest(); got != want {
		return fmt.Errorf("system: snapshot digest %x does not match this machine/trace (%x)", got[:8], want[:8])
	}

	r.Section(secEngine)
	now := sim.Time(r.U64())
	seq := r.U64()
	nexec := r.U64()
	nev := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nev < 0 {
		return fmt.Errorf("system: negative event count %d", nev)
	}
	events := make([]sim.EventState, nev)
	for i := range events {
		at := sim.Time(r.U64())
		sq := r.U64()
		hid := r.U64()
		op := r.Int()
		addr := r.U64()
		arg := r.I64()
		if err := r.Err(); err != nil {
			return err
		}
		h, err := s.handlerByID(hid)
		if err != nil {
			return err
		}
		events[i] = sim.EventState{At: at, Seq: sq, Op: op, Addr: addr, Arg: arg, H: h}
	}
	s.eng.RestoreState(now, seq, nexec, events)
	s.running = r.Int()

	r.Section(secMetrics)
	loadMetrics(r, &s.metrics)

	r.Section(secMesh)
	var meshSt mesh.State
	for i := range meshSt.Traffic {
		meshSt.Traffic[i] = r.U64()
	}
	for i := range meshSt.Msgs {
		meshSt.Msgs[i] = r.U64()
	}
	s.net.RestoreState(meshSt)

	r.Section(secDram)
	if err := s.restoreDram(r); err != nil {
		return err
	}

	r.Section(secCores)
	for i := range s.cores {
		c := &s.cores[i]
		if err := c.loadState(r); err != nil {
			return fmt.Errorf("system: core %d: %w", c.id, err)
		}
	}

	r.Section(secBanks)
	for i := range s.banks {
		b := &s.banks[i]
		if err := b.loadState(r); err != nil {
			return fmt.Errorf("system: bank %d: %w", b.id, err)
		}
	}

	if s.flt != nil {
		r.Section(secFault)
		n := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("system: negative fault state length %d", n)
		}
		st := make([]uint64, n)
		for i := range st {
			st[i] = r.U64()
		}
		if err := r.Err(); err != nil {
			return err
		}
		if !s.flt.LoadState(st) {
			return fmt.Errorf("system: malformed fault injector state")
		}
	}

	return r.Err()
}

func (s *System) restoreDram(r *snapshot.Reader) error {
	nch := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nch < 0 {
		return fmt.Errorf("system: negative channel count %d", nch)
	}
	st := dram.State{Channels: make([]dram.ChannelState, nch)}
	for ci := range st.Channels {
		ch := &st.Channels[ci]
		for b := range ch.Banks {
			ch.Banks[b].OpenRow = r.I64()
			ch.Banks[b].FreeAt = sim.Time(r.U64())
		}
		ch.BusFree = sim.Time(r.U64())
		ch.Kicked = r.Bool()
		np := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if np < 0 {
			return fmt.Errorf("system: negative pending count %d", np)
		}
		ch.Pending = make([]dram.RequestState, np)
		for i := range ch.Pending {
			rq := &ch.Pending[i]
			rq.Blk = r.U64()
			rq.Arrive = sim.Time(r.U64())
			rq.IsWrite = r.Bool()
			if r.Bool() {
				hid := r.U64()
				rq.Op = r.Int()
				rq.Arg = r.I64()
				if err := r.Err(); err != nil {
					return err
				}
				h, err := s.handlerByID(hid)
				if err != nil {
					return err
				}
				rq.H = h
			}
		}
	}
	st.Stats = dram.Stats{Reads: r.U64(), Writes: r.U64(), RowHits: r.U64(), RowMisses: r.U64()}
	if err := r.Err(); err != nil {
		return err
	}
	return s.mem.RestoreState(st)
}

// --- per-component codecs ---

func putPrivMeta(w *snapshot.Writer, m privMeta) { w.Int(int(m.st)) }

func getPrivMeta(r *snapshot.Reader) privMeta { return privMeta{st: privState(r.Int())} }

func (c *coreNode) saveState(w *snapshot.Writer) {
	w.Int(c.pos)
	w.Bool(c.finished)
	w.U64(uint64(c.finishAt))
	w.U64(c.retries)
	if o := c.out; o != nil {
		w.Bool(true)
		w.U64(o.addr)
		w.Int(int(o.kind))
		w.Bool(o.ifetch)
		w.Bool(o.hasGrant)
		w.Int(int(o.grantState))
		w.Int(o.wantAcks)
		w.Int(o.acks)
		w.Bool(o.hasData)
		w.Int(o.dataMode)
		w.Bool(o.notifyHome)
		w.Bool(o.done)
		w.Int(int(o.seq))
		w.Int(int(o.xmits))
	} else {
		w.Bool(false)
	}
	w.Int(int(c.reqSeq))
	w.Int(int(c.evictSeq))
	cache.SaveState(w, &c.l1i, putPrivMeta)
	cache.SaveState(w, &c.l1d, putPrivMeta)
	cache.SaveState(w, &c.l2, putPrivMeta)
	w.Int(c.evictBuf.Len())
	for _, a := range sortedBlockmapAddrs(&c.evictBuf) {
		e, _ := c.evictBuf.Get(a)
		w.U64(a)
		w.Int(int(e.st))
		w.Int(int(e.seq))
		w.Int(int(e.xmits))
	}
	w.Int(c.pendingFwd.Len())
	for _, a := range sortedBlockmapAddrs(&c.pendingFwd) {
		f, _ := c.pendingFwd.Get(a)
		w.U64(a)
		w.Int(int(f.kind))
		w.Int(f.requester)
		w.Int(f.bank)
	}
	w.Int(c.pendingInvs.Len())
	for _, a := range sortedBlockmapAddrs(&c.pendingInvs) {
		invs, _ := c.pendingInvs.Get(a)
		w.U64(a)
		w.Int(len(invs))
		for _, iv := range invs {
			w.Int(iv.ackTo)
			w.Int(iv.ackBank)
			w.Bool(iv.withData)
		}
	}
}

func (c *coreNode) loadState(r *snapshot.Reader) error {
	c.pos = r.Int()
	c.finished = r.Bool()
	c.finishAt = sim.Time(r.U64())
	c.retries = r.U64()
	if r.Bool() {
		c.outBuf = outstanding{
			addr:       r.U64(),
			kind:       proto.ReqKind(r.Int()),
			ifetch:     r.Bool(),
			hasGrant:   r.Bool(),
			grantState: privState(r.Int()),
			wantAcks:   r.Int(),
			acks:       r.Int(),
			hasData:    r.Bool(),
			dataMode:   r.Int(),
			notifyHome: r.Bool(),
			done:       r.Bool(),
		}
		c.outBuf.seq = uint16(r.Int())
		c.outBuf.xmits = uint8(r.Int())
		c.out = &c.outBuf
	} else {
		c.out = nil
	}
	c.reqSeq = uint16(r.Int())
	c.evictSeq = uint16(r.Int())
	if err := cache.LoadState(r, &c.l1i, getPrivMeta); err != nil {
		return err
	}
	if err := cache.LoadState(r, &c.l1d, getPrivMeta); err != nil {
		return err
	}
	if err := cache.LoadState(r, &c.l2, getPrivMeta); err != nil {
		return err
	}
	c.evictBuf.Reset()
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		a := r.U64()
		c.evictBuf.Put(a, evictEntry{st: privState(r.Int()), seq: uint16(r.Int()), xmits: uint8(r.Int())})
	}
	c.pendingFwd.Reset()
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		a := r.U64()
		c.pendingFwd.Put(a, fwdReq{kind: proto.ReqKind(r.Int()), requester: r.Int(), bank: r.Int()})
	}
	c.pendingInvs.Reset()
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		a := r.U64()
		ni := r.Int()
		if ni < 0 || r.Err() != nil {
			break
		}
		invs := make([]invReq, ni)
		for j := range invs {
			invs[j] = invReq{ackTo: r.Int(), ackBank: r.Int(), withData: r.Bool()}
		}
		c.pendingInvs.Put(a, invs)
	}
	return r.Err()
}

func (b *bankNode) saveState(w *snapshot.Writer) {
	cache.SaveState(w, &b.llc, proto.PutLLCMeta)
	w.Int(b.busy.Len())
	for _, a := range sortedBlockmapAddrs(&b.busy) {
		t := b.busyGet(a)
		w.U64(a)
		w.Int(int(t.kind))
		w.Int(t.requester)
		proto.PutEntry(w, t.next)
		proto.PutEntry(w, t.pre)
		w.Int(t.backInvalAcks)
		proto.PutEntry(w, t.view.E)
		w.Bool(t.view.SupplyFromLLC)
		w.Bool(t.view.SpillHit)
		w.Int(t.view.ExtraLatency)
		w.Bool(t.view.NeedBroadcast)
		w.Int(int(t.grant))
		proto.PutVec(w, t.fwdExcl)
		w.U64(t.gen)
	}
	if b.reqSeen != nil {
		// Fault mode (matched on restore via the digested fault config).
		w.U64(b.txnGen)
		for i := range b.reqSeen {
			w.I64(int64(b.reqSeen[i]))
			w.I64(int64(b.evictSeen[i]))
		}
	}
	b.tracker.SaveState(w)
}

func (b *bankNode) loadState(r *snapshot.Reader) error {
	if err := cache.LoadState(r, &b.llc, proto.GetLLCMeta); err != nil {
		return err
	}
	b.busy.Reset()
	for i, n := 0, r.Int(); i < n && r.Err() == nil; i++ {
		a := r.U64()
		t := &txn{
			kind:      proto.ReqKind(r.Int()),
			requester: r.Int(),
			next:      proto.GetEntry(r),
			pre:       proto.GetEntry(r),
		}
		t.backInvalAcks = r.Int()
		t.view = proto.View{
			E:             proto.GetEntry(r),
			SupplyFromLLC: r.Bool(),
			SpillHit:      r.Bool(),
			ExtraLatency:  r.Int(),
			NeedBroadcast: r.Bool(),
		}
		t.grant = privState(r.Int())
		t.fwdExcl = proto.GetVec(r)
		t.gen = r.U64()
		b.busy.Put(a, t)
	}
	if b.reqSeen != nil {
		b.txnGen = r.U64()
		for i := range b.reqSeen {
			b.reqSeen[i] = int32(r.I64())
			b.evictSeen[i] = int32(r.I64())
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return b.tracker.LoadState(r)
}

// --- helpers ---

// sortedBlockmapAddrs walks an open-addressed table (slot order) and sorts
// the keys so serialized bytes do not depend on insertion history.
func sortedBlockmapAddrs[V any](m *blockmap.Map[V]) []uint64 {
	addrs := make([]uint64, 0, m.Len())
	m.ForEach(func(a uint64, _ V) { addrs = append(addrs, a) })
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// saveMetrics/loadMetrics walk the Metrics struct with reflection in field
// declaration order, so adding a counter does not need a codec edit (the
// format version still must be bumped). Supported field kinds: uint64,
// [N]uint64, and map[string]uint64.
func saveMetrics(w *snapshot.Writer, m *Metrics) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			w.U64(f.Uint())
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				w.U64(f.Index(j).Uint())
			}
		case reflect.Map:
			if f.IsNil() {
				w.Bool(false)
				continue
			}
			w.Bool(true)
			keys := make([]string, 0, f.Len())
			for _, k := range f.MapKeys() {
				keys = append(keys, k.String())
			}
			sort.Strings(keys)
			w.Int(len(keys))
			for _, k := range keys {
				w.String(k)
				w.U64(f.MapIndex(reflect.ValueOf(k)).Uint())
			}
		default:
			w.Fail(fmt.Errorf("system: unserializable Metrics field %s (%s)", v.Type().Field(i).Name, f.Kind()))
		}
	}
}

func loadMetrics(r *snapshot.Reader, m *Metrics) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(r.U64())
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetUint(r.U64())
			}
		case reflect.Map:
			if !r.Bool() {
				f.Set(reflect.Zero(f.Type()))
				continue
			}
			n := r.Int()
			mv := reflect.MakeMapWithSize(f.Type(), n)
			for j := 0; j < n && r.Err() == nil; j++ {
				k := r.String()
				mv.SetMapIndex(reflect.ValueOf(k), reflect.ValueOf(r.U64()))
			}
			f.Set(mv)
		default:
			r.Fail(fmt.Errorf("system: unserializable Metrics field %s (%s)", v.Type().Field(i).Name, f.Kind()))
		}
	}
}
