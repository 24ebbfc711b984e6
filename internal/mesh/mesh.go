// Package mesh models the on-die 2D mesh interconnect of Table I: a 16x8
// mesh (for 128 tiles) clocked at 2 GHz with a four-stage routing pipeline
// (2 ns) plus 1 ns link latency per hop — 3 ns, i.e. 6 core cycles per hop.
//
// The model is a fixed-latency approximation rather than a flit-level
// simulation: each message traverses dist(src,dst) hops of fixed latency,
// and messages do not queue behind one another, so back-to-back messages
// between the same nodes arrive together. Traffic is accounted in
// bytes*hops, split into the paper's three classes (processor, writeback,
// coherence) for Fig. 5.
package mesh

import (
	"fmt"

	"tinydir/internal/fault"
	"tinydir/internal/obs"
	"tinydir/internal/sim"
)

// HopCycles is the per-hop latency in core cycles (3 ns at 2 GHz).
const HopCycles = 6

// TrafficClass is the Fig. 5 message taxonomy.
type TrafficClass int

const (
	// Processor covers private-cache misses and their data responses.
	Processor TrafficClass = iota
	// Writeback covers eviction notices and their acknowledgements.
	Writeback
	// Coherence covers forwarded requests, invalidations, invalidation
	// acknowledgements, busy-clear notifications and broadcast recovery.
	Coherence

	NumClasses
)

func (c TrafficClass) String() string {
	switch c {
	case Processor:
		return "processor"
	case Writeback:
		return "writeback"
	case Coherence:
		return "coherence"
	default:
		return fmt.Sprintf("TrafficClass(%d)", int(c))
	}
}

// Message sizes in bytes. A control flit is 8 B; a data message carries a
// 64 B block plus header. Eviction notices that carry the 4+ceil(log2 C)
// reconstruction bits of the in-LLC scheme cost 2 extra bytes.
const (
	CtrlBytes        = 8
	DataBytes        = 72
	ReconBitsBytes   = 2 // first-bits payload piggybacked on a notice
	BroadcastPerDest = CtrlBytes
)

// Mesh is the interconnect. Node ids 0..N-1 are tiles laid out row-major
// on a Width x Height grid.
type Mesh struct {
	eng    *sim.Engine
	width  int
	height int

	// Traffic accounting: bytes * hops per class.
	traffic [NumClasses]uint64
	// msgs counts messages per class.
	msgs [NumClasses]uint64

	// Obs, when non-nil, receives one trace span per message (lane =
	// source node, duration = wire time). Pure observation: set or left
	// nil, timing and accounting are identical.
	Obs *obs.TraceWriter

	// Faults, when non-nil, perturbs SendEvent deliveries: delay jitter
	// for any message, plus drop/duplication for messages the Droppable
	// classifier marks as protocol-recoverable.
	Faults *fault.Injector
	// Droppable reports whether losing a message to (h, op) is
	// survivable by the protocol (requests, NACKs, evict traffic).
	// Everything else is delay-only. Required when Faults is set.
	Droppable func(h sim.Handler, op int) bool
}

// Config configures a Mesh.
type Config struct {
	Width, Height int
}

// New creates a mesh attached to the engine.
func New(eng *sim.Engine, cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("mesh: non-positive dimensions")
	}
	return &Mesh{eng: eng, width: cfg.Width, height: cfg.Height}
}

// Coord returns the (x, y) position of node n.
func (m *Mesh) Coord(n int) (x, y int) { return n % m.width, n / m.width }

// Dist returns the Manhattan hop count between two nodes. A message to the
// local tile still takes one hop (network interface traversal).
func (m *Mesh) Dist(a, b int) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	if dx+dy == 0 {
		return 1
	}
	return dx + dy
}

// Latency returns the uncontended network latency between two nodes.
func (m *Mesh) Latency(a, b int) sim.Time {
	return sim.Time(m.Dist(a, b) * HopCycles)
}

// SendEvent delivers h.OnEvent(op, addr, arg) at dst after the network
// latency from src, accounting bytes of class traffic. It returns the
// delivery time. The delivery is a pooled engine event, so sending
// allocates nothing.
func (m *Mesh) SendEvent(src, dst int, bytes int, class TrafficClass, h sim.Handler, op int, addr uint64, arg int64) sim.Time {
	d := m.Dist(src, dst)
	m.traffic[class] += uint64(bytes * d)
	m.msgs[class]++
	depart := m.eng.Now()
	at := depart + sim.Time(d*HopCycles)
	if m.Obs != nil {
		m.Obs.Add(obs.CatMesh, class.String(), src, uint64(depart), uint64(d*HopCycles), addr)
	}
	if m.Faults != nil {
		return m.faultDeliver(src, dst, bytes, class, at, h, op, addr, arg)
	}
	m.eng.ScheduleAt(at, h, op, addr, arg)
	return at
}

// faultDeliver is the cold path taken only when an injector is wired
// in: it may drop the delivery, delay it, or deliver it twice. Traffic
// for the original message is already accounted; a duplicate accounts
// its own wire traffic (it really crosses the mesh again).
func (m *Mesh) faultDeliver(src, dst, bytes int, class TrafficClass, at sim.Time, h sim.Handler, op int, addr uint64, arg int64) sim.Time {
	v := m.Faults.MeshDraw(src, uint64(m.eng.Now()), m.Droppable(h, op))
	if v.Drop {
		// Lost on the wire: traffic was spent, nothing arrives. The
		// protocol's timeout/retry machinery heals this.
		return at
	}
	at += sim.Time(v.Jitter)
	m.eng.ScheduleAt(at, h, op, addr, arg)
	if v.Dup {
		m.traffic[class] += uint64(bytes * m.Dist(src, dst))
		m.msgs[class]++
		m.eng.ScheduleAt(at+sim.Time(1+v.DupJitter), h, op, addr, arg)
	}
	return at
}

// Account records traffic without scheduling a delivery (used for messages
// whose latency is folded into another event, e.g. piggybacked data).
func (m *Mesh) Account(src, dst int, bytes int, class TrafficClass) {
	m.traffic[class] += uint64(bytes * m.Dist(src, dst))
	m.msgs[class]++
}

// TrafficBytes returns accumulated bytes*hops for a class.
func (m *Mesh) TrafficBytes(class TrafficClass) uint64 { return m.traffic[class] }

// Messages returns the message count for a class.
func (m *Mesh) Messages(class TrafficClass) uint64 { return m.msgs[class] }
