// Package dram models main memory: eight single-channel DDR3-2133
// controllers with FR-FCFS-style scheduling, one rank per channel, eight
// banks per rank, 8 KB rows, open-page policy, 12-12-12 timing — the
// Table I configuration the paper models with DRAMSim2.
//
// The model tracks per-bank open rows and busy times and per-channel data
// bus occupancy. Scheduling is FR-FCFS-lite: among the oldest `window`
// pending requests of a channel, a row-buffer hit to a ready bank is
// served first; otherwise the oldest request is served.
package dram

import (
	"tinydir/internal/fault"
	"tinydir/internal/obs"
	"tinydir/internal/sim"
)

// Timing in core cycles at 2 GHz. DDR3-2133 has tCK = 0.9375 ns; CL =
// tRCD = tRP = 12 DRAM cycles = 11.25 ns = 22.5 core cycles (rounded to
// 23). BL=8 on a 64-bit channel moves 64 B in 4 DRAM cycles = 3.75 ns =
// 7.5 core cycles (rounded to 8).
const (
	tCAS   sim.Time = 23
	tRCD   sim.Time = 23
	tRP    sim.Time = 23
	tBurst sim.Time = 8

	banksPerChannel = 8
	blocksPerRow    = 128 // 8 KB row / 64 B blocks
	frfcfsWindow    = 8
)

type request struct {
	blk     uint64
	arrive  sim.Time
	isWrite bool
	// Completion is delivered as h.OnEvent(op, blk, arg); writes have no h.
	h   sim.Handler
	op  int
	arg int64
}

type bank struct {
	openRow int64 // -1 = closed
	freeAt  sim.Time
}

type channel struct {
	banks   [banksPerChannel]bank
	busFree sim.Time
	pending []request
	kicked  bool
}

// Stats aggregates controller activity.
type Stats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64
}

// Memory is the set of memory controllers.
type Memory struct {
	eng      *sim.Engine
	channels []channel
	stats    Stats

	// Obs, when non-nil, receives one span per scheduled access (lane =
	// channel, ts = arrival, duration = queueing + service time). Pure
	// observation: timing is identical with or without it.
	Obs *obs.TraceWriter

	// Faults, when non-nil, aborts scheduled transactions with the
	// configured probability; the request stays pending and the channel
	// retries after a precharge delay. FaultComp is the injector
	// component id of channel 0 (channel ch draws as FaultComp+ch).
	Faults    *fault.Injector
	FaultComp int
}

// New creates a memory system with nChannels controllers.
func New(eng *sim.Engine, nChannels int) *Memory {
	if nChannels <= 0 {
		panic("dram: non-positive channel count")
	}
	m := &Memory{eng: eng, channels: make([]channel, nChannels)}
	for c := range m.channels {
		for b := range m.channels[c].banks {
			m.channels[c].banks[b].openRow = -1
		}
	}
	return m
}

// Channel returns the controller index that owns block address blk.
func (m *Memory) Channel(blk uint64) int { return int(blk % uint64(len(m.channels))) }

func (m *Memory) decode(blk uint64) (ch, bk int, row int64) {
	ch = m.Channel(blk)
	c := blk / uint64(len(m.channels))
	bk = int(c % banksPerChannel)
	row = int64(c / banksPerChannel / blocksPerRow)
	return
}

// opKick is the Memory's own handler op: re-arm the scheduler for a channel
// once its data bus frees. The channel index travels in addr.
const opKick = 1

// OnEvent implements sim.Handler for the controller's internal re-kicks.
func (m *Memory) OnEvent(op int, addr uint64, arg int64) {
	ch := int(addr)
	m.channels[ch].kicked = false
	m.kick(ch)
}

// ReadEvent schedules a block read whose completion is delivered as a pooled
// event h.OnEvent(op, blk, arg) once the data has left the DRAM (the caller
// adds network latency back to the requester).
func (m *Memory) ReadEvent(blk uint64, h sim.Handler, op int, arg int64) {
	m.stats.Reads++
	m.enqueue(request{blk: blk, arrive: m.eng.Now(), h: h, op: op, arg: arg})
}

// Write schedules a block writeback. Writes consume bank and bus time but
// complete silently.
func (m *Memory) Write(blk uint64) {
	m.stats.Writes++
	m.enqueue(request{blk: blk, arrive: m.eng.Now(), isWrite: true})
}

// Stats returns a copy of the accumulated statistics.
func (m *Memory) Stats() Stats { return m.stats }

func (m *Memory) enqueue(r request) {
	ch := m.Channel(r.blk)
	c := &m.channels[ch]
	c.pending = append(c.pending, r)
	m.kick(ch)
}

func (m *Memory) kick(ch int) {
	c := &m.channels[ch]
	if c.kicked || len(c.pending) == 0 {
		return
	}
	now := m.eng.Now()
	if c.busFree > now {
		// Bus busy: try again when it frees.
		c.kicked = true
		m.eng.ScheduleAt(c.busFree, m, opKick, uint64(ch), 0)
		return
	}
	// FR-FCFS-lite: among the first `frfcfsWindow` pending requests pick a
	// row hit whose bank is ready; fall back to the oldest.
	pick := 0
	limit := len(c.pending)
	if limit > frfcfsWindow {
		limit = frfcfsWindow
	}
	for i := 0; i < limit; i++ {
		_, bk, row := m.decode(c.pending[i].blk)
		b := &c.banks[bk]
		if b.openRow == row && b.freeAt <= now {
			pick = i
			break
		}
	}
	if m.Faults != nil && m.Faults.DRAMDraw(m.FaultComp+ch) {
		// Transaction abort (modeling a command/CRC retry): leave the
		// request pending and re-kick after a precharge delay. The
		// request set is unchanged, so retry terminates with probability
		// one and ordering stays deterministic.
		c.kicked = true
		m.eng.ScheduleAt(now+tRP, m, opKick, uint64(ch), 0)
		return
	}
	r := c.pending[pick]
	c.pending = append(c.pending[:pick], c.pending[pick+1:]...)

	_, bk, row := m.decode(r.blk)
	b := &c.banks[bk]
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	var act sim.Time
	switch {
	case b.openRow == row:
		act = tCAS
		m.stats.RowHits++
	case b.openRow < 0:
		act = tRCD + tCAS
		m.stats.RowMisses++
	default:
		act = tRP + tRCD + tCAS
		m.stats.RowMisses++
	}
	dataStart := start + act
	if dataStart < c.busFree {
		dataStart = c.busFree
	}
	finish := dataStart + tBurst
	b.openRow = row
	b.freeAt = finish
	c.busFree = finish
	if m.Obs != nil {
		name := "read"
		if r.isWrite {
			name = "write"
		}
		m.Obs.Add(obs.CatDRAM, name, ch, uint64(r.arrive), uint64(finish-r.arrive), r.blk)
	}
	if r.h != nil {
		m.eng.ScheduleAt(finish, r.h, r.op, r.blk, r.arg)
	}
	if len(c.pending) > 0 {
		c.kicked = true
		m.eng.ScheduleAt(finish, m, opKick, uint64(ch), 0)
	}
}
