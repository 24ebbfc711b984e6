package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// DefaultEpochCap bounds the in-memory epoch ring: at the default interval
// this covers 40M cycles, far past any run in the suite, while capping
// worst-case memory at ~1 MB.
const DefaultEpochCap = 4096

// EpochSample is one row of the time series. The system layer fills it
// with *cumulative* counters (mirroring the fields of system.Metrics that
// make sense over time, flattened so obs does not import system); Observe
// differences consecutive snapshots into per-epoch deltas. Keeping the
// struct flat and cumulative at the call site means the sampler needs no
// knowledge of how the counters are produced, and the deltas provably sum
// back to the final aggregate (pinned by TestEpochDeltasSumToAggregate).
type EpochSample struct {
	Index    uint64 // ordinal of this epoch within the run
	EndCycle uint64 // cycle at which the sample was taken
	Cycles   uint64 // cycles covered since the previous sample

	Retired     uint64 // references completed (retired) by all cores
	L1Hits      uint64
	L2Hits      uint64
	Misses      uint64 // private-hierarchy misses (requests reaching the LLC banks)
	LLCAccesses uint64
	LLCMisses   uint64
	Lengthened  uint64 // lengthened-block supplies (code + data corruption)
	Nacks       uint64
	Retries     uint64
	Forwards    uint64
	MemReads    uint64
	Traffic     [3]uint64 // bytes by mesh class: processor, writeback, coherence
	DRAMReads   uint64
	DRAMWrites  uint64
}

func (s *EpochSample) sub(prev EpochSample) {
	s.Retired -= prev.Retired
	s.L1Hits -= prev.L1Hits
	s.L2Hits -= prev.L2Hits
	s.Misses -= prev.Misses
	s.LLCAccesses -= prev.LLCAccesses
	s.LLCMisses -= prev.LLCMisses
	s.Lengthened -= prev.Lengthened
	s.Nacks -= prev.Nacks
	s.Retries -= prev.Retries
	s.Forwards -= prev.Forwards
	s.MemReads -= prev.MemReads
	for i := range s.Traffic {
		s.Traffic[i] -= prev.Traffic[i]
	}
	s.DRAMReads -= prev.DRAMReads
	s.DRAMWrites -= prev.DRAMWrites
}

func (s *EpochSample) isZero() bool {
	z := *s
	z.Index, z.EndCycle, z.Cycles = 0, 0, 0
	return z == EpochSample{}
}

// EpochSampler turns cumulative counter snapshots into a bounded ring of
// per-epoch deltas. Observe runs on the simulation goroutine; LatestIPC is
// the only method safe to call concurrently (it reads one atomic), feeding
// the live sweep monitor.
type EpochSampler struct {
	Interval uint64 // cycles per epoch
	Dropped  uint64 // epochs evicted from a full ring

	ring  []EpochSample
	head  int // index of the oldest sample
	n     int // samples currently in the ring
	prev  EpochSample
	count uint64 // epochs observed, including dropped

	latestIPC atomic.Uint64 // math.Float64bits of the last epoch's IPC
}

// newEpochSampler makes a sampler whose ring holds cap epochs.
func newEpochSampler(interval uint64, cap int) *EpochSampler {
	return &EpochSampler{Interval: interval, ring: make([]EpochSample, 0, cap)}
}

// Observe records the delta between cum and the previous snapshot as one
// epoch. A snapshot with no activity and no cycle progress is skipped, so
// the final flush at drain time never emits an empty trailing row.
func (e *EpochSampler) Observe(cum EpochSample) {
	d := cum
	d.sub(e.prev)
	d.Cycles = cum.EndCycle - e.prev.EndCycle
	if d.Cycles == 0 && d.isZero() {
		return
	}
	e.prev = cum
	d.Index = e.count
	e.count++
	e.latestIPC.Store(math.Float64bits(d.IPC()))
	if e.n < cap(e.ring) {
		e.ring = e.ring[:e.n+1]
		e.ring[(e.head+e.n)%cap(e.ring)] = d
		e.n++
		return
	}
	e.ring[e.head] = d
	e.head = (e.head + 1) % cap(e.ring)
	e.Dropped++
}

// Samples returns the retained epochs oldest-first.
func (e *EpochSampler) Samples() []EpochSample {
	out := make([]EpochSample, 0, e.n)
	for i := 0; i < e.n; i++ {
		out = append(out, e.ring[(e.head+i)%cap(e.ring)])
	}
	return out
}

// LatestIPC returns the IPC of the most recently completed epoch. Safe for
// concurrent use with Observe.
func (e *EpochSampler) LatestIPC() float64 {
	return math.Float64frombits(e.latestIPC.Load())
}

// IPC is the epoch's retirement rate per core-aggregate cycle. The
// simulator retires one reference per completed memory access, so this is
// references per cycle, the closest analogue of IPC the trace-driven
// machine has.
func (s *EpochSample) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// LLCMissRate mirrors Metrics.LLCMissRate over one epoch.
func (s *EpochSample) LLCMissRate() float64 {
	if s.LLCAccesses == 0 {
		return 0
	}
	return float64(s.LLCMisses) / float64(s.LLCAccesses)
}

// LengthenedFrac is the fraction of this epoch's LLC accesses served by a
// lengthened block.
func (s *EpochSample) LengthenedFrac() float64 {
	if s.LLCAccesses == 0 {
		return 0
	}
	return float64(s.Lengthened) / float64(s.LLCAccesses)
}

// epochHeader is the fixed CSV schema. Derived rates are included so the
// series plots without post-processing.
const epochHeader = "epoch,end_cycle,cycles,retired,ipc,l1_hits,l2_hits,misses," +
	"llc_accesses,llc_misses,llc_miss_rate,lengthened,lengthened_frac," +
	"nacks,retries,forwards,mem_reads," +
	"traffic_processor,traffic_writeback,traffic_coherence,dram_reads,dram_writes\n"

// WriteCSV emits the retained epochs oldest-first with fixed formatting,
// so the output is byte-deterministic for a fixed run.
func (e *EpochSampler) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, epochHeader); err != nil {
		return err
	}
	for i := 0; i < e.n; i++ {
		s := &e.ring[(e.head+i)%cap(e.ring)]
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%.4f,%d,%d,%d,%d,%d,%.4f,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Index, s.EndCycle, s.Cycles, s.Retired, s.IPC(),
			s.L1Hits, s.L2Hits, s.Misses,
			s.LLCAccesses, s.LLCMisses, s.LLCMissRate(),
			s.Lengthened, s.LengthenedFrac(),
			s.Nacks, s.Retries, s.Forwards, s.MemReads,
			s.Traffic[0], s.Traffic[1], s.Traffic[2],
			s.DRAMReads, s.DRAMWrites)
		if err != nil {
			return err
		}
	}
	return nil
}
