package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// recorder implements Handler: it logs every delivery, then runs the
// optional hook (nested scheduling) with the delivered op.
type recorder struct {
	ops   []int
	addrs []uint64
	args  []int64
	times []Time
	eng   *Engine
	hook  func(op int)
}

func (r *recorder) OnEvent(op int, addr uint64, arg int64) {
	r.ops = append(r.ops, op)
	r.addrs = append(r.addrs, addr)
	r.args = append(r.args, arg)
	r.times = append(r.times, r.eng.Now())
	if r.hook != nil {
		r.hook(op)
	}
}

// expectPanic fails t unless fn panics.
func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	r := &recorder{eng: &e}
	e.ScheduleAt(10, r, 1, 0, 0)
	e.ScheduleAt(5, r, 0, 0, 0)
	e.ScheduleAt(10, r, 2, 0, 0) // same time: FIFO by schedule order
	e.ScheduleAt(20, r, 3, 0, 0)
	e.Run(0)
	if !reflect.DeepEqual(r.ops, []int{0, 1, 2, 3}) {
		t.Fatalf("order %v, want [0 1 2 3]", r.ops)
	}
	if e.Now() != 20 {
		t.Fatalf("final time %d, want 20", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var e Engine
	r := &recorder{eng: &e}
	r.hook = func(op int) {
		if op == 1 {
			e.ScheduleAfter(4, r, 2, 0, 0)
		}
	}
	e.ScheduleAt(1, r, 1, 0, 0)
	e.Run(0)
	if !reflect.DeepEqual(r.times, []Time{1, 5}) {
		t.Fatalf("times = %v, want [1 5]", r.times)
	}
}

func TestEnginePastPanics(t *testing.T) {
	var e Engine
	r := &recorder{eng: &e}
	r.hook = func(op int) {
		if op == 1 {
			expectPanic(t, "ScheduleAt in the past", func() { e.ScheduleAt(5, r, 2, 0, 0) })
		}
	}
	e.ScheduleAt(10, r, 1, 0, 0)
	e.Run(0)
}

func TestEngineLimit(t *testing.T) {
	var e Engine
	r := &recorder{eng: &e}
	for i := 0; i < 10; i++ {
		e.ScheduleAt(Time(i), r, 0, 0, 0)
	}
	if got := e.Run(4); got != 4 {
		t.Fatalf("Run(4) executed %d", got)
	}
	if !e.Pending() {
		t.Fatal("queue should still have events")
	}
}

// Property: events fire in nondecreasing time order regardless of the
// scheduling order, and every scheduled event fires exactly once.
func TestEngineTimeMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var e Engine
		r := &recorder{eng: &e}
		for _, d := range delays {
			e.ScheduleAt(Time(d), r, 0, uint64(d), 0)
		}
		e.Run(0)
		if len(r.times) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(r.times, func(i, j int) bool { return r.times[i] < r.times[j] }) {
			return false
		}
		// Multiset equality with the input delays, and each event fired
		// at the time it asked for.
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if r.times[i] != want[i] || Time(r.addrs[i]) != r.times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		r := &recorder{eng: &e}
		// op is the nesting depth: each delivery below depth 3 schedules
		// one more event a random distance ahead.
		r.hook = func(depth int) {
			if depth < 3 {
				e.ScheduleAfter(Time(rng.Intn(50)), r, depth+1, 0, 0)
			}
		}
		for i := 0; i < 20; i++ {
			e.ScheduleAfter(Time(rng.Intn(50)), r, 0, 0, 0)
		}
		e.Run(0)
		return r.times
	}
	a, b := run(42), run(42)
	if len(a) != 80 {
		t.Fatalf("executed %d events, want 80", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic schedule:\n%v\n%v", a, b)
	}
}

func TestEngineHandlerPath(t *testing.T) {
	var e Engine
	r := &recorder{eng: &e}
	e.ScheduleAt(10, r, 1, 0xAA, -7)
	e.ScheduleAt(5, r, 2, 0xBB, 3)
	e.ScheduleAfter(3, r, 3, 0, 0) // t=3, scheduled last but earliest
	e.Run(0)
	wantOps := []int{3, 2, 1}
	wantTimes := []Time{3, 5, 10}
	if !reflect.DeepEqual(r.ops, wantOps) || !reflect.DeepEqual(r.times, wantTimes) {
		t.Fatalf("deliveries = ops %v at %v, want ops %v at %v", r.ops, r.times, wantOps, wantTimes)
	}
	if r.addrs[2] != 0xAA || r.args[2] != -7 {
		t.Fatalf("payload = (%#x, %d), want (0xaa, -7)", r.addrs[2], r.args[2])
	}
	if e.Executed() != 3 {
		t.Fatalf("executed %d events, want 3", e.Executed())
	}
}

func TestEngineHandlerPastPanics(t *testing.T) {
	var e Engine
	r := &recorder{eng: &e}
	e.ScheduleAt(10, r, 0, 0, 0)
	e.Run(0)
	expectPanic(t, "ScheduleAt in the past after Run", func() { e.ScheduleAt(5, r, 0, 0, 0) })
}

// TestQueueReleasesReferences pins drained-slot zeroing: after Run drains,
// neither tier's backing arrays may keep retired events' handler pointers
// alive. Ring buckets and the overflow heap both persist at their
// high-water capacity, so a non-zeroed slot would pin a handler's object
// graph until the next push overwrote it (or forever).
func TestQueueReleasesReferences(t *testing.T) {
	var e Engine
	for i := 0; i < 100; i++ {
		e.ScheduleAt(Time(i), &recorder{eng: &e}, 0, 0, 0)               // ring tier
		e.ScheduleAt(Time(i)+2*ringHorizon, &recorder{eng: &e}, 0, 0, 0) // overflow tier
	}
	e.Run(0)
	if e.Pending() {
		t.Fatal("queue should be drained")
	}
	for s := range e.ring {
		b := e.ring[s].ev
		for i, ev := range b[:cap(b)] {
			if ev.h != nil {
				t.Fatalf("ring slot %d/%d retains references after drain: %+v", s, i, ev)
			}
		}
	}
	for i, ev := range e.over[:cap(e.over)] {
		if ev.h != nil {
			t.Fatalf("overflow slot %d retains references after drain: %+v", i, ev)
		}
	}
}

// refHeap is the pre-calendar binary heap in its original (time, seq)
// form, kept as the ordering oracle for the differential test below.
type refHeap struct {
	q []event
}

func (h *refHeap) push(ev event) {
	q := append(h.q, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	h.q = q
}

func (h *refHeap) pop() event {
	q := h.q
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
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
	h.q = q
	return min
}

// TestCalendarVsHeapDifferential drives the calendar queue and the reference
// binary heap with an identical randomized schedule — 10k operations mixing
// near-future pushes (inside the ring horizon), far-future pushes (overflow
// tier), same-cycle pushes, and pops — and requires the identical pop order,
// event by event. Pops advance a shared simulated clock so both structures
// see the same `now` when routing pushes.
func TestCalendarVsHeapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var e Engine
	var ref refHeap
	h := &recorder{eng: &e}
	seq := uint64(0)
	now := Time(0)
	pending := 0
	const ops = 10000
	for i := 0; i < ops; i++ {
		if pending > 0 && rng.Intn(3) == 0 {
			// Pop from both; compare (at, seq) and payload.
			want := ref.pop()
			// Drive the engine's pop path directly (no dispatch).
			var got event
			if e.ringN > 0 {
				s := e.scanRing()
				b := &e.ring[s]
				if len(e.over) > 0 && e.over[0].at <= b.ev[b.head].at {
					got = e.popOver()
				} else {
					got = e.popRing(s)
				}
			} else {
				got = e.popOver()
			}
			if got.at != want.at || got.seq != want.seq || got.addr != want.addr {
				t.Fatalf("op %d: pop (t=%d seq=%d addr=%#x), heap wants (t=%d seq=%d addr=%#x)",
					i, got.at, got.seq, got.addr, want.at, want.seq, want.addr)
			}
			now = got.at
			e.now = now
			pending--
			continue
		}
		var d Time
		switch rng.Intn(4) {
		case 0:
			d = 0 // same cycle
		case 1:
			d = Time(rng.Intn(64)) // dense near future
		case 2:
			d = Time(rng.Intn(2 * ringHorizon)) // straddles the horizon
		default:
			d = Time(ringHorizon + rng.Intn(8*ringHorizon)) // deep overflow
		}
		seq++
		ev := event{at: now + d, seq: seq, h: h, addr: uint64(seq)}
		e.push(ev)
		ref.push(ev)
		pending++
	}
	for pending > 0 {
		want := ref.pop()
		var got event
		if e.ringN > 0 {
			s := e.scanRing()
			b := &e.ring[s]
			if len(e.over) > 0 && e.over[0].at <= b.ev[b.head].at {
				got = e.popOver()
			} else {
				got = e.popRing(s)
			}
		} else {
			got = e.popOver()
		}
		if got.at != want.at || got.seq != want.seq || got.addr != want.addr {
			t.Fatalf("drain: pop (t=%d seq=%d addr=%#x), heap wants (t=%d seq=%d addr=%#x)",
				got.at, got.seq, got.addr, want.at, want.seq, want.addr)
		}
		e.now = got.at
		pending--
	}
	if e.Pending() {
		t.Fatal("calendar queue not drained")
	}
}

// BenchmarkEngineHandler is the pooled event path: no allocation, no boxing.
func BenchmarkEngineHandler(b *testing.B) {
	var e Engine
	r := &recorder{eng: &e}
	r.ops = make([]int, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.ops = r.ops[:0]
		r.addrs = r.addrs[:0]
		r.args = r.args[:0]
		r.times = r.times[:0]
		e.ScheduleAfter(Time(i%64), r, 1, uint64(i), 0)
		e.Step()
	}
}

// TestReleaseKeepsPendingStorage: Release on an engine with pending events
// is a no-op — every event still runs, in order — while a drained engine
// gives its storage up and takes storage again on the next push.
func TestReleaseKeepsPendingStorage(t *testing.T) {
	var e Engine
	r := &recorder{eng: &e}
	e.ScheduleAt(3, r, 1, 0, 0)
	e.ScheduleAt(3+2*ringHorizon, r, 2, 0, 0) // overflow tier
	e.Run(1)
	e.Release()
	if e.ring == nil || !e.Pending() {
		t.Fatal("Release dropped the storage of an engine with pending events")
	}
	e.Run(0)
	if !reflect.DeepEqual(r.ops, []int{1, 2}) {
		t.Fatalf("ops after a refused Release = %v, want [1 2]", r.ops)
	}
	e.Release()
	if e.ring != nil || e.occ != nil || e.over != nil {
		t.Fatal("Release kept the storage of a drained engine")
	}
	e.ScheduleAfter(5, r, 3, 0, 0)
	e.Run(0)
	if !reflect.DeepEqual(r.ops, []int{1, 2, 3}) || e.Now() != 3+2*ringHorizon+5 {
		t.Fatalf("engine after Release: ops %v at %d", r.ops, e.Now())
	}
}

// TestReusedQueueMatchesFresh: an engine running on a store another
// engine drained pops the same schedule in the same order as one running
// on freshly allocated storage.
func TestReusedQueueMatchesFresh(t *testing.T) {
	schedule := func(e *Engine) *recorder {
		r := &recorder{eng: e}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 2000; i++ {
			e.ScheduleAt(Time(rng.Intn(3*ringHorizon)), r, i, 0, 0)
		}
		e.Run(0)
		return r
	}
	var fresh, first, reused Engine
	fresh.ring, fresh.occ = make([]ringBucket, ringHorizon), make([]uint64, ringHorizon/64)
	fr := schedule(&fresh)
	schedule(&first)
	reused.ring, reused.occ, reused.over = first.ring, first.occ, first.over
	rr := schedule(&reused)
	if !reflect.DeepEqual(fr.ops, rr.ops) || !reflect.DeepEqual(fr.times, rr.times) {
		t.Fatal("a reused queue store popped a different order than fresh storage")
	}
}
