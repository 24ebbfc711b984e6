// Package fault is a seeded, fully deterministic fault-injection layer
// for the simulated machine. Faults are drawn from a counter-based PRNG
// keyed by (seed, component id, per-component draw count), so a given
// seed replays bit-identically regardless of host scheduling, and two
// components never share a random stream. Three fault classes are
// modeled:
//
//   - mesh: delay jitter, drop, and duplication of protocol messages
//   - ecc: transient single-bit corruption of tracker sharer vectors,
//     always *detected* (parity/ECC check) — the protocol recovers by
//     invalidate-and-refetch, never silently
//   - dram: transaction abort-and-retry at the memory controller
//
// An Injector also aggregates fault.* counters that the system merges
// into Metrics.Tracker, and carries the protocol tuning knobs (timeout
// windows, backoff) the survival machinery uses. A nil *Injector means
// faults are off: every call site is nil-checked so the fault-free hot
// path keeps its exact event sequence and allocation profile.
package fault

import "math"

// Config selects fault rates and protocol timeouts. The zero value
// injects nothing. Rates are probabilities in [0, 1) per draw.
type Config struct {
	Seed uint64 // PRNG seed; runs with equal seeds replay bit-identically

	MeshDelay float64 // P(extra delivery jitter) per eligible message
	MeshDrop  float64 // P(message lost) per droppable message
	MeshDup   float64 // P(message delivered twice) per droppable message
	MaxJitter uint64  // jitter drawn uniformly from [1, MaxJitter] cycles

	ECC       float64 // P(detected sharer-vector corruption) per tracker lookup
	DRAMAbort float64 // P(abort-and-retry) per scheduled DRAM transaction

	// Blackout forces a 100% drop rate for droppable messages inside
	// [BlackoutFrom, BlackoutUntil) sim cycles — a directed fault window
	// used to provoke real stall episodes (e.g. for watchdog tests).
	BlackoutFrom  uint64
	BlackoutUntil uint64

	// Protocol timeouts, in cycles. Zero selects defaults.
	ReqTimeout   uint64 // base core-side request retransmit timeout
	EvictTimeout uint64 // base core-side evict-notice retransmit timeout
	BankTimeout  uint64 // home-bank transaction age check window
}

// Default protocol timeout windows (cycles). Generous relative to the
// worst-case fault-free transaction (a DRAM fill across the mesh is a
// few hundred cycles) so timeouts fire only on genuine loss.
const (
	DefaultReqTimeout   = 4000
	DefaultEvictTimeout = 4000
	DefaultBankTimeout  = 50_000
	// MaxBackoffShift caps exponential backoff at base << 6 = 64x.
	MaxBackoffShift = 6
)

// Enabled reports whether this configuration can inject any fault.
func (c Config) Enabled() bool {
	return c.MeshDelay > 0 || c.MeshDrop > 0 || c.MeshDup > 0 ||
		c.ECC > 0 || c.DRAMAbort > 0 || c.BlackoutUntil > c.BlackoutFrom
}

// Uniform is the standard soak mix: one rate spread across all three
// fault classes with moderate jitter.
func Uniform(seed uint64, rate float64) Config {
	return Config{
		Seed:      seed,
		MeshDelay: rate,
		MeshDrop:  rate,
		MeshDup:   rate / 2,
		MaxJitter: 40,
		ECC:       rate / 4,
		DRAMAbort: rate / 2,
	}
}

// Stats aggregates every fault injected and every recovery action the
// protocol took. The system merges these into Metrics.Tracker under
// fault.* keys.
type Stats struct {
	MeshDelays uint64 // messages given extra delivery jitter
	MeshDrops  uint64 // messages lost (including blackout drops)
	MeshDups   uint64 // messages delivered twice

	ECCDetected uint64 // tracker sharer-vector corruptions detected
	ECCInvals   uint64 // invalidations broadcast to recover from them

	DRAMAborts uint64 // DRAM transactions aborted and retried

	ReqTimeouts      uint64 // core-side request retransmissions
	EvictRetransmits uint64 // core-side evict-notice retransmissions
	DupReqs          uint64 // duplicate requests suppressed at banks
	DupEvicts        uint64 // duplicate/stale evict notices dropped at banks
	StaleEvictAcks   uint64 // evict acks for superseded notices ignored at cores
	BankTxnLate      uint64 // home-bank transactions seen alive past BankTimeout
}

// Injector draws faults deterministically. One instance serves a whole
// system; component ids partition the stream (mesh source nodes, bank
// ECC checkers, DRAM channels each get their own id and draw counter).
// Not safe for concurrent use — the event loop is single-threaded.
type Injector struct {
	cfg Config

	reqTimeout   uint64
	evictTimeout uint64
	bankTimeout  uint64

	// Rates as 64-bit thresholds: a draw u fires iff u < threshold.
	meshDelayT uint64
	meshDropT  uint64
	meshDupT   uint64
	eccT       uint64
	dramT      uint64

	counts []uint64 // per-component draw counters

	Stats Stats
}

// New builds an injector for components [0, components). Returns nil
// when the config injects nothing, so call sites can use a single
// nil-check as the fast-path gate.
func New(cfg Config, components int) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	f := &Injector{
		cfg:          cfg,
		reqTimeout:   cfg.ReqTimeout,
		evictTimeout: cfg.EvictTimeout,
		bankTimeout:  cfg.BankTimeout,
		meshDelayT:   threshold(cfg.MeshDelay),
		meshDropT:    threshold(cfg.MeshDrop),
		meshDupT:     threshold(cfg.MeshDup),
		eccT:         threshold(cfg.ECC),
		dramT:        threshold(cfg.DRAMAbort),
		counts:       make([]uint64, components),
	}
	if f.reqTimeout == 0 {
		f.reqTimeout = DefaultReqTimeout
	}
	if f.evictTimeout == 0 {
		f.evictTimeout = DefaultEvictTimeout
	}
	if f.bankTimeout == 0 {
		f.bankTimeout = DefaultBankTimeout
	}
	return f
}

// threshold converts a probability to a uint64 comparison threshold:
// P(u < threshold(p)) = p for u uniform over 64 bits.
func threshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * (1 << 63) * 2) // p * 2^64 without overflowing float64->uint64
}

// ReqTimeout returns the base core-side request retransmit window.
func (f *Injector) ReqTimeout() uint64 { return f.reqTimeout }

// EvictTimeout returns the base core-side evict retransmit window.
func (f *Injector) EvictTimeout() uint64 { return f.evictTimeout }

// BankTimeout returns the home-bank transaction age check window.
func (f *Injector) BankTimeout() uint64 { return f.bankTimeout }

// mix is a splitmix64-style finalizer over (seed, component, count):
// a counter-based PRNG, so replay depends only on the draw sequence
// each component makes, never on host scheduling.
func mix(seed, comp, n uint64) uint64 {
	z := seed ^ comp*0x9e3779b97f4a7c15 ^ n*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Splitmix exposes the counter-based finalizer for other deterministic
// fault layers (the sweep chaos proxy draws its injection stream from
// it): uniform 64-bit output fully determined by (seed, comp, n).
func Splitmix(seed, comp, n uint64) uint64 { return mix(seed, comp, n) }

// Threshold exposes the probability-to-threshold conversion used with
// Splitmix draws: P(Splitmix(...) < Threshold(p)) = p.
func Threshold(p float64) uint64 { return threshold(p) }

// draw advances component comp's counter and returns a fresh 64-bit
// uniform value.
func (f *Injector) draw(comp int) uint64 {
	n := f.counts[comp]
	f.counts[comp] = n + 1
	return mix(f.cfg.Seed, uint64(comp)+1, n)
}

// MeshVerdict is the outcome of one mesh-message draw.
type MeshVerdict struct {
	Drop      bool
	Dup       bool
	Jitter    uint64 // extra delivery delay, cycles (0 = none)
	DupJitter uint64 // extra delay for the duplicate copy
}

// MeshDraw decides the fate of one mesh message sent by component comp
// at time now. droppable marks messages whose loss the protocol can
// heal (requests, NACKs, evict notices/acks); everything else is only
// ever delayed. During a blackout window every droppable message is
// lost.
func (f *Injector) MeshDraw(comp int, now uint64, droppable bool) MeshVerdict {
	var v MeshVerdict
	u := f.draw(comp)
	if droppable {
		if f.cfg.BlackoutUntil > f.cfg.BlackoutFrom &&
			now >= f.cfg.BlackoutFrom && now < f.cfg.BlackoutUntil {
			f.Stats.MeshDrops++
			v.Drop = true
			return v
		}
		if u < f.meshDropT {
			f.Stats.MeshDrops++
			v.Drop = true
			return v
		}
		u -= f.meshDropT
		if u < f.meshDupT {
			f.Stats.MeshDups++
			v.Dup = true
			v.DupJitter = f.jitter(comp)
		} else {
			u -= f.meshDupT
		}
	}
	if u < f.meshDelayT {
		v.Jitter = f.jitter(comp)
		if v.Jitter > 0 {
			f.Stats.MeshDelays++
		}
	}
	return v
}

// jitter draws a uniform delay in [1, MaxJitter] (0 if unconfigured).
func (f *Injector) jitter(comp int) uint64 {
	if f.cfg.MaxJitter == 0 {
		return 0
	}
	return 1 + f.draw(comp)%f.cfg.MaxJitter
}

// ECCDraw reports whether component comp's next tracker lookup detects
// a corrupted sharer vector.
func (f *Injector) ECCDraw(comp int) bool {
	if f.eccT == 0 {
		return false
	}
	if f.draw(comp) < f.eccT {
		f.Stats.ECCDetected++
		return true
	}
	return false
}

// DRAMDraw reports whether component comp's next scheduled DRAM
// transaction aborts and must retry.
func (f *Injector) DRAMDraw(comp int) bool {
	if f.dramT == 0 {
		return false
	}
	if f.draw(comp) < f.dramT {
		f.Stats.DRAMAborts++
		return true
	}
	return false
}

// Metrics merges the fault counters into m under fault.* keys, the same
// namespace convention trackers use for their scheme counters.
func (f *Injector) Metrics(m map[string]uint64) {
	m["fault.mesh_delays"] = f.Stats.MeshDelays
	m["fault.mesh_drops"] = f.Stats.MeshDrops
	m["fault.mesh_dups"] = f.Stats.MeshDups
	m["fault.ecc_detected"] = f.Stats.ECCDetected
	m["fault.ecc_invals"] = f.Stats.ECCInvals
	m["fault.dram_aborts"] = f.Stats.DRAMAborts
	m["fault.req_timeouts"] = f.Stats.ReqTimeouts
	m["fault.evict_retransmits"] = f.Stats.EvictRetransmits
	m["fault.dup_reqs"] = f.Stats.DupReqs
	m["fault.dup_evicts"] = f.Stats.DupEvicts
	m["fault.stale_evict_acks"] = f.Stats.StaleEvictAcks
	m["fault.bank_txn_late"] = f.Stats.BankTxnLate
}

// SaveState serializes the injector's mutable state (draw counters and
// stats) as a flat uint64 slice for the snapshot layer. Layout:
// len(counts), counts..., then the Stats fields in declaration order.
func (f *Injector) SaveState() []uint64 {
	out := make([]uint64, 0, len(f.counts)+13)
	out = append(out, uint64(len(f.counts)))
	out = append(out, f.counts...)
	s := &f.Stats
	out = append(out,
		s.MeshDelays, s.MeshDrops, s.MeshDups,
		s.ECCDetected, s.ECCInvals, s.DRAMAborts,
		s.ReqTimeouts, s.EvictRetransmits,
		s.DupReqs, s.DupEvicts, s.StaleEvictAcks, s.BankTxnLate)
	return out
}

// LoadState restores state captured by SaveState. Returns false on a
// malformed payload.
func (f *Injector) LoadState(in []uint64) bool {
	if len(in) < 1 {
		return false
	}
	n := int(in[0])
	if n != len(f.counts) || len(in) != 1+n+12 {
		return false
	}
	copy(f.counts, in[1:1+n])
	rest := in[1+n:]
	s := &f.Stats
	s.MeshDelays, s.MeshDrops, s.MeshDups = rest[0], rest[1], rest[2]
	s.ECCDetected, s.ECCInvals, s.DRAMAborts = rest[3], rest[4], rest[5]
	s.ReqTimeouts, s.EvictRetransmits = rest[6], rest[7]
	s.DupReqs, s.DupEvicts, s.StaleEvictAcks, s.BankTxnLate = rest[8], rest[9], rest[10], rest[11]
	return true
}
