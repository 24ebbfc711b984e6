package system

// Observability glue: wires a Config.Recorder into the machine and funnels
// every completed reference through one hook. Everything here follows the
// Checker contract — each recording site is behind a nil check, the
// disabled path is one predictable branch, and nothing observes its way
// into the simulation (no events scheduled, no timing touched). A run with
// a recorder attached produces bit-identical Metrics to one without.

import (
	"io"

	"tinydir/internal/mesh"
	"tinydir/internal/obs"
	"tinydir/internal/sim"
)

// attachObs installs the configured recorder's sinks: the trace writer on
// the mesh and DRAM, the watchdog on the engine's watch hook, and the
// epoch cadence on the retire path.
func (s *System) attachObs() {
	r := s.cfg.Recorder
	if r == nil {
		return
	}
	s.rec = r
	if r.Epochs != nil {
		s.epochEvery = r.Epochs.Interval
		s.nextEpoch = s.epochEvery
	}
	if r.Trace != nil {
		s.net.Obs = r.Trace
		s.mem.Obs = r.Trace
	}
	if wd := r.Watchdog; wd != nil {
		wd.Dump = func(w io.Writer) {
			io.WriteString(w, s.DumpStall())
			r.Latency.WriteText(w)
		}
		s.eng.SetWatch(wd.OnStep)
	}
}

// onRetire records one completed reference. Callers guard on s.rec != nil,
// so the disabled path never reaches here. at is the retirement cycle
// (private hits batched inside one event retire at Now()+elapsed, which is
// why it is passed rather than read from the engine).
func (s *System) onRetire(class obs.LatClass, at sim.Time, lat uint64) {
	s.retired++
	r := s.rec
	r.Latency.Record(class, lat)
	if r.Watchdog != nil {
		r.Watchdog.Pet(uint64(at))
	}
	if s.epochEvery != 0 {
		if now := uint64(at); now >= s.nextEpoch {
			s.sampleEpoch(now)
		}
	}
}

// sampleEpoch closes the current epoch at cycle now. Sampling piggybacks
// on retirements instead of scheduling its own events, so an instrumented
// run executes the exact event sequence of a bare one; an epoch therefore
// closes at the first retirement at-or-after its boundary, and its true
// extent is the Cycles column, not the nominal interval.
func (s *System) sampleEpoch(now uint64) {
	s.nextEpoch = (now/s.epochEvery + 1) * s.epochEvery
	s.rec.Epochs.Observe(s.cumulative(now))
}

// flushObs closes the final partial epoch when the run drains, so the
// epoch deltas sum exactly to the aggregate Metrics.
func (s *System) flushObs() {
	if s.rec == nil || s.rec.Epochs == nil {
		return
	}
	s.rec.Epochs.Observe(s.cumulative(uint64(s.eng.Now())))
}

// cumulative snapshots the running counters the epoch series tracks.
// Traffic and DRAM activity are read from the live components (collect
// copies them into Metrics only at the end of the run).
func (s *System) cumulative(now uint64) obs.EpochSample {
	m := &s.metrics
	sm := obs.EpochSample{
		EndCycle:    now,
		Retired:     s.retired,
		L1Hits:      m.L1Hits,
		L2Hits:      m.L2Hits,
		Misses:      m.PrivateMisses,
		LLCAccesses: m.LLCAccesses,
		LLCMisses:   m.LLCMisses,
		Lengthened:  m.LengthenedCode + m.LengthenedData,
		Nacks:       m.Nacks,
		Retries:     m.Retries,
		Forwards:    m.Forwards,
		MemReads:    m.MemReads,
	}
	for cl := mesh.TrafficClass(0); cl < mesh.NumClasses; cl++ {
		sm.Traffic[cl] = s.net.TrafficBytes(cl)
	}
	ds := s.mem.Stats()
	sm.DRAMReads, sm.DRAMWrites = ds.Reads, ds.Writes
	return sm
}

// recordMissRetire classifies and records a completed miss. Precedence:
// a NACKed request is a retry regardless of how it finally completed; a
// lengthened supply outranks the generic three-hop it rides on; the
// memory-fetch flag only matters for otherwise plain two-hop fills.
func (c *coreNode) recordMissRetire(o *outstanding) {
	now := c.sys.eng.Now()
	lat := uint64(now - o.issuedAt)
	class := obs.LatFill2Hop
	switch {
	case o.nacked:
		class = obs.LatRetry
	case o.lengthened:
		class = obs.LatLengthened
	case o.threeHop:
		class = obs.LatFwd3Hop
	case o.viaMem:
		class = obs.LatDRAM
	}
	if t := c.sys.rec.Trace; t != nil {
		t.Add(obs.CatCore, class.String(), c.id, uint64(o.issuedAt), lat, o.addr)
	}
	c.sys.onRetire(class, now, lat)
}

// traceDone emits the bank-side span of the transaction holding addr busy,
// from its arrival at the home bank to now. outcome overrides the span
// name ("" uses the request kind); it distinguishes aborted paths (NACK on
// a full LLC set) and back-invalidations, whose txns carry no request.
func (b *bankNode) traceDone(addr uint64, outcome string) {
	r := b.sys.rec
	if r == nil || r.Trace == nil {
		return
	}
	t := b.busyGet(addr)
	if t == nil {
		return
	}
	name := outcome
	if name == "" {
		name = t.kind.String()
	}
	now := b.sys.eng.Now()
	r.Trace.Add(obs.CatBank, name, b.id, uint64(t.startedAt), uint64(now-t.startedAt), addr)
}
