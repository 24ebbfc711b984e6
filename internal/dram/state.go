package dram

import (
	"fmt"

	"tinydir/internal/sim"
)

// BankState is one bank's mutable state.
type BankState struct {
	OpenRow int64
	FreeAt  sim.Time
}

// RequestState is one queued request in serializable form. Completion
// handlers are kept as interface values; internal/system maps them to
// stable ids.
type RequestState struct {
	Blk     uint64
	Arrive  sim.Time
	IsWrite bool
	H       sim.Handler
	Op      int
	Arg     int64
}

// ChannelState is one controller's mutable state.
type ChannelState struct {
	Banks   [banksPerChannel]BankState
	BusFree sim.Time
	Kicked  bool
	Pending []RequestState
}

// State is the complete memory-system state.
type State struct {
	Channels []ChannelState
	Stats    Stats
}

// SaveState captures bank rows/timings, bus occupancy, pending request
// queues, and statistics.
func (m *Memory) SaveState() State {
	st := State{Channels: make([]ChannelState, len(m.channels)), Stats: m.stats}
	for ci := range m.channels {
		c := &m.channels[ci]
		cs := &st.Channels[ci]
		for b := range c.banks {
			cs.Banks[b] = BankState{OpenRow: c.banks[b].openRow, FreeAt: c.banks[b].freeAt}
		}
		cs.BusFree = c.busFree
		cs.Kicked = c.kicked
		cs.Pending = make([]RequestState, len(c.pending))
		for i, r := range c.pending {
			cs.Pending[i] = RequestState{Blk: r.blk, Arrive: r.arrive, IsWrite: r.isWrite, H: r.h, Op: r.op, Arg: r.arg}
		}
	}
	return st
}

// RestoreState overwrites the memory system's state.
func (m *Memory) RestoreState(st State) error {
	if len(st.Channels) != len(m.channels) {
		return fmt.Errorf("dram: restoring %d channels into %d-channel memory", len(st.Channels), len(m.channels))
	}
	for ci := range m.channels {
		c := &m.channels[ci]
		cs := &st.Channels[ci]
		for b := range c.banks {
			c.banks[b] = bank{openRow: cs.Banks[b].OpenRow, freeAt: cs.Banks[b].FreeAt}
		}
		c.busFree = cs.BusFree
		c.kicked = cs.Kicked
		c.pending = make([]request, len(cs.Pending))
		for i, r := range cs.Pending {
			c.pending[i] = request{blk: r.Blk, arrive: r.Arrive, isWrite: r.IsWrite, h: r.H, op: r.Op, arg: r.Arg}
		}
	}
	m.stats = st.Stats
	return nil
}
