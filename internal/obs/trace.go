package obs

import (
	"fmt"
	"io"
)

// Cat groups trace spans by the component that produced them. Each
// category maps to a Chrome trace "process", so the viewer stacks cores,
// banks, mesh links, and DRAM channels as separate swim-lane groups.
type Cat uint8

const (
	CatCore Cat = iota
	CatBank
	CatMesh
	CatDRAM
	numCats
)

var catNames = [numCats]string{"core", "bank", "mesh", "dram"}

func (c Cat) String() string { return catNames[c] }

// span is one complete ("ph":"X") trace event: a named interval on a
// (category, lane) track. Spans are recorded in event-execution order,
// which is deterministic, so the emitted JSON is byte-stable.
type span struct {
	cat  Cat
	lane int32  // tid within the category: core id, bank id, mesh port, DRAM channel
	ts   uint64 // start cycle
	dur  uint64 // cycles
	addr uint64 // block address, 0 when not applicable
	name string
}

// TraceWriter accumulates a bounded window of spans and serializes them in
// the Chrome trace-event (catapult) JSON format, loadable in
// chrome://tracing or Perfetto. The bound is a hard cap: once reached,
// further spans are dropped and counted, keeping memory and file size
// proportional to the window, not the run.
type TraceWriter struct {
	Dropped uint64

	spans []span
	max   int
}

func newTraceWriter(max int) *TraceWriter {
	if max < 0 {
		max = 0
	}
	cap := max
	if cap > 1<<16 {
		cap = 1 << 16 // grow on demand past 64k to avoid huge up-front slabs
	}
	return &TraceWriter{max: max, spans: make([]span, 0, cap)}
}

// Add records one complete span. The name must be a stable literal or a
// deterministic function of the simulation state (no pointers, no maps).
func (t *TraceWriter) Add(cat Cat, name string, lane int, ts, dur, addr uint64) {
	if len(t.spans) >= t.max {
		t.Dropped++
		return
	}
	t.spans = append(t.spans, span{cat: cat, lane: int32(lane), ts: ts, dur: dur, addr: addr, name: name})
}

// WriteJSON emits the catapult trace document. Timestamps are simulated
// core cycles presented as microseconds (the viewer's native unit); the
// clock note in otherData records that. Process metadata names the four
// component groups; spans carry their block address as an argument.
func (t *TraceWriter) WriteJSON(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "{\"otherData\": {\"clock\": \"core-cycles\", \"dropped\": %d},\n\"traceEvents\": [\n", t.Dropped); err != nil {
		return err
	}
	for c := Cat(0); c < numCats; c++ {
		sep := ","
		if len(t.spans) == 0 && c == numCats-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "{\"ph\": \"M\", \"pid\": %d, \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": %q}}%s\n",
			int(c), c.String()+"s", sep); err != nil {
			return err
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		var err error
		if s.addr != 0 {
			_, err = fmt.Fprintf(w, "{\"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": %d, \"dur\": %d, \"cat\": %q, \"name\": %q, \"args\": {\"addr\": \"%#x\"}}%s\n",
				int(s.cat), s.lane, s.ts, s.dur, s.cat.String(), s.name, s.addr, sep)
		} else {
			_, err = fmt.Fprintf(w, "{\"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": %d, \"dur\": %d, \"cat\": %q, \"name\": %q}%s\n",
				int(s.cat), s.lane, s.ts, s.dur, s.cat.String(), s.name, sep)
		}
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "]}\n")
	return err
}
