// Package sim provides the discrete-event simulation engine that drives the
// chip-multiprocessor model. Time is measured in core clock cycles (2 GHz in
// the default configuration). Components schedule callbacks at absolute
// cycles; the engine executes them in (time, sequence) order so that runs are
// fully deterministic for a given input.
package sim

import (
	"math/bits"

	"tinydir/internal/freelist"
)

// Time is an absolute simulation time in core cycles.
type Time uint64

// Handler receives events scheduled with ScheduleAt/ScheduleAfter.
// Long-lived components (cores, banks, memory) implement it once; op selects
// the action, addr carries the block address, and arg packs any small message
// fields. Because the component pointer already satisfies the interface, no
// allocation happens per event.
type Handler interface {
	OnEvent(op int, addr uint64, arg int64)
}

// event is one pending delivery of h.OnEvent(op, addr, arg).
type event struct {
	at   Time
	seq  uint64
	h    Handler
	op   int
	addr uint64
	arg  int64
}

// before reports queue ordering: (time, sequence). Sequence numbers are
// unique so the order is total and runs are reproducible regardless of how
// either tier arranges equal-priority internals.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The calendar ring covers the dense near-future window [now, now+ringHorizon).
// Nearly every event in the simulated machine lands here: mesh hops are 6
// cycles, bank tag/data latencies are small constants, and even an uncontended
// DRAM fill is a few hundred cycles. Only the fault-protocol timers (request
// and evict retransmits at 4000+ cycles with exponential backoff, the 50k-cycle
// bank transaction check) fall outside and take the overflow heap. The horizon
// is a power of two so the slot of cycle t is a mask, not a division.
const (
	ringHorizon = 1024
	ringMask    = ringHorizon - 1
)

// ringBucket holds the events of one cycle, in schedule (= sequence) order.
// head indexes the next undrained event; the tail keeps its capacity across
// reuse so steady-state scheduling allocates nothing.
type ringBucket struct {
	ev   []event
	head int
}

// queueStore is the calendar queue's storage: the ring buckets with their
// grown event slices, the occupancy bitmap and the overflow heap's backing
// array. A drained engine's store is empty in the exact sense a fresh one
// is — every bucket at length 0 with head 0, every bitmap word zero, the
// heap at length 0, every vacated event slot zeroed — so handing it to the
// next engine cannot change any pop order.
type queueStore struct {
	ring []ringBucket
	occ  []uint64
	over []event
}

// queueList recycles drained engines' stores across the process: a sweep
// runs hundreds of short simulations back to back, and regrowing 1024
// bucket slices from nil dominated each one's allocations. It holds at
// most as many stores as engines were ever live at once.
var queueList freelist.List[queueStore]

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is ready to use. Events live in a two-tier calendar queue:
//
//   - ring: one bucket per cycle of the near-future window [now, now+1024).
//     Push is an append (slot = at & mask); pop scans a 1024-bit occupancy
//     bitmap from the current cycle's slot — O(1) with tiny constants, no
//     sift traffic. Each bucket drains as a batch in append order, which is
//     sequence order, so the (time, seq) total order is preserved exactly.
//   - overflow: a small binary heap ordered by (time, seq) for events at
//     least a horizon away (retry/backoff timers, watchdog checks). For any
//     cycle T, every overflow-resident event was scheduled at sim time
//     ≤ T-1024, strictly before any ring-resident event for T could have
//     been scheduled (those require now > T-1024), so overflow events carry
//     strictly smaller sequence numbers and are drained first on a tie.
//
// Together the two rules reproduce bit-for-bit the pop order of a single
// (time, seq) binary heap, at a fraction of the per-event cost.
type Engine struct {
	now   Time
	seq   uint64
	nexec uint64
	watch func(Time, uint64)

	ring  []ringBucket // ringHorizon buckets; nil until the first push
	occ   []uint64     // occupancy bitmap, one bit per ring slot
	ringN int          // events resident in the ring
	over  []event      // overflow binary heap, (time, seq) ordered
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nexec }

// Tiers reports how many pending events reside in each tier of the calendar
// queue: the near-future ring and the far-future overflow heap. Snapshot
// tests use it to prove a checkpoint exercised both tiers.
func (e *Engine) Tiers() (ring, overflow int) { return e.ringN, len(e.over) }

// push routes ev to the ring when it lands inside the near-future window and
// to the overflow heap otherwise. checkTime has already ensured ev.at >= now,
// so the unsigned difference is the true distance.
func (e *Engine) push(ev event) {
	if e.ring == nil {
		e.acquire()
	}
	if ev.at-e.now < ringHorizon {
		s := int(ev.at) & ringMask
		b := &e.ring[s]
		b.ev = append(b.ev, ev)
		e.occ[s>>6] |= 1 << uint(s&63)
		e.ringN++
		return
	}
	e.pushOver(ev)
}

// acquire gives the engine queue storage: a drained engine's store from
// queueList when one is idle, fresh storage otherwise.
func (e *Engine) acquire() {
	st, ok := queueList.Get()
	if !ok {
		st = queueStore{ring: make([]ringBucket, ringHorizon), occ: make([]uint64, ringHorizon/64)}
	}
	e.ring, e.occ, e.over = st.ring, st.occ, st.over
}

// Release hands a drained engine's queue storage to the process-wide free
// list for a later engine's first push. An engine with pending events
// keeps its storage: releasing it would drop the events. The engine stays
// usable either way; a push after a release takes storage again.
func (e *Engine) Release() {
	if e.ring == nil || e.Pending() {
		return
	}
	queueList.Put(queueStore{ring: e.ring, occ: e.occ, over: e.over})
	e.ring, e.occ, e.over = nil, nil, nil
}

// scanRing returns the slot of the earliest ring event. Ring events all
// satisfy now <= at < now+ringHorizon, so scanning slots from the current
// cycle's position (wrapping once) visits cycles in increasing order; the
// occupancy bitmap makes each probe a word test. The caller guarantees
// ringN > 0. In the common case — the next event is within a few cycles —
// the first word test hits.
func (e *Engine) scanRing() int {
	s := int(e.now) & ringMask
	w := s >> 6
	words := len(e.occ)
	word := e.occ[w] &^ (1<<uint(s&63) - 1)
	for i := 0; i <= words; i++ {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w == words {
			w = 0
		}
		word = e.occ[w]
	}
	panic("sim: occupancy bitmap empty with ringN > 0")
}

// pushOver inserts ev into the overflow heap and sifts it up.
func (e *Engine) pushOver(ev event) {
	q := e.over
	i := len(q)
	q = append(q, ev)
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.over = q
}

// popOver removes and returns the minimum overflow event. The vacated tail
// slot is zeroed so the retired event's handler reference is GC-able instead of pinned by the backing array.
func (e *Engine) popOver() event {
	q := e.over
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q[l].before(&q[small]) {
			small = l
		}
		if r < n && q[r].before(&q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	e.over = q
	return min
}

// popRing removes and returns the head event of slot s, zeroing the drained
// slot (see TestQueueReleasesReferences) and releasing the bucket when the
// batch is exhausted.
func (e *Engine) popRing(s int) event {
	b := &e.ring[s]
	ev := b.ev[b.head]
	b.ev[b.head] = event{}
	b.head++
	e.ringN--
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
		e.occ[s>>6] &^= 1 << uint(s&63)
	}
	return ev
}

func (e *Engine) checkTime(t Time) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
}

// ScheduleAt schedules h.OnEvent(op, addr, arg) at absolute time t without
// allocating: the event is a struct in a bucket's backing array and h is a
// pre-existing component pointer. Scheduling in the past is a programming
// error and panics, because it would silently corrupt timing.
func (e *Engine) ScheduleAt(t Time, h Handler, op int, addr uint64, arg int64) {
	e.checkTime(t)
	e.seq++
	e.push(event{at: t, seq: e.seq, h: h, op: op, addr: addr, arg: arg})
}

// ScheduleAfter schedules h.OnEvent(op, addr, arg) d cycles from now.
func (e *Engine) ScheduleAfter(d Time, h Handler, op int, addr uint64, arg int64) {
	e.ScheduleAt(e.now+d, h, op, addr, arg)
}

// SetWatch installs fn to be called after every executed event with the
// current time and the executed-event count. It exists for observability
// (the stall watchdog); a nil watch — the default — costs one predictable
// branch per event. The watch must not schedule events or mutate machine
// state, and it is not part of the engine's serialized state.
func (e *Engine) SetWatch(fn func(Time, uint64)) { e.watch = fn }

// Pending reports whether any events remain.
func (e *Engine) Pending() bool { return e.ringN+len(e.over) > 0 }

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	var ev event
	if e.ringN > 0 {
		s := e.scanRing()
		b := &e.ring[s]
		if len(e.over) > 0 && e.over[0].at <= b.ev[b.head].at {
			// Same cycle: the overflow event was scheduled a full
			// horizon earlier in sim time, so its sequence number is
			// smaller — it goes first.
			ev = e.popOver()
		} else {
			ev = e.popRing(s)
		}
	} else if len(e.over) > 0 {
		ev = e.popOver()
	} else {
		return false
	}
	e.now = ev.at
	e.nexec++
	ev.h.OnEvent(ev.op, ev.addr, ev.arg)
	if e.watch != nil {
		e.watch(e.now, e.nexec)
	}
	return true
}

// Run executes events until the queue drains or limit events have run
// (limit 0 means no limit). It returns the number of events executed by
// this call.
func (e *Engine) Run(limit uint64) uint64 {
	var n uint64
	for limit == 0 || n < limit {
		if !e.Step() {
			break
		}
		n++
	}
	return n
}
