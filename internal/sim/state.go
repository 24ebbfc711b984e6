package sim

import "sort"

// EventState is one pending event in serializable form. The Handler is kept
// as an interface value: the caller (internal/system) owns the mapping
// between handlers and stable ids, since only it knows every component.
type EventState struct {
	At   Time
	Seq  uint64
	Op   int
	Addr uint64
	Arg  int64
	H    Handler
}

// SaveState captures the engine's complete state: current time, sequence
// counter, executed-event count, and the pending queue sorted by (time, seq)
// — the execution order, independent of how events are distributed between
// the calendar ring and the overflow heap, so saved bytes are deterministic.
func (e *Engine) SaveState() (now Time, seq, nexec uint64, events []EventState) {
	events = make([]EventState, 0, e.ringN+len(e.over))
	add := func(ev *event) {
		events = append(events, EventState{At: ev.at, Seq: ev.seq, Op: ev.op, Addr: ev.addr, Arg: ev.arg, H: ev.h})
	}
	for i := range e.ring {
		b := &e.ring[i]
		for j := b.head; j < len(b.ev); j++ {
			add(&b.ev[j])
		}
	}
	for i := range e.over {
		add(&e.over[i])
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return events[i].Seq < events[j].Seq
	})
	return e.now, e.seq, e.nexec, events
}

// RestoreState overwrites the engine with a previously saved state. Events
// are accepted in any order: they are sorted into (time, seq) order before
// placement so ring buckets fill in sequence order (the batch-drain order),
// which also keeps snapshots written by the older heap-ordered format
// restorable.
func (e *Engine) RestoreState(now Time, seq, nexec uint64, events []EventState) {
	e.now, e.seq, e.nexec = now, seq, nexec
	e.halted = false
	e.ring = nil
	e.occ = nil
	e.ringN = 0
	e.over = nil
	sorted := make([]EventState, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].At != sorted[j].At {
			return sorted[i].At < sorted[j].At
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	for _, ev := range sorted {
		e.push(event{at: ev.At, seq: ev.Seq, h: ev.H, op: ev.Op, addr: ev.Addr, arg: ev.Arg})
	}
}
