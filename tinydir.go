// Package tinydir is the public API of this reproduction of "Tiny
// Directory: Efficient Shared Memory in Many-core Systems with
// Ultra-low-overhead Coherence Tracking" (Shukla & Chaudhuri, HPCA 2017).
//
// It wraps the simulation substrates under internal/ with a configuration
// surface mirroring the paper's experiments: pick an application profile
// (the 17 workloads of Table II), a coherence-tracking scheme (sparse
// baselines, the in-LLC scheme of §III, the tiny directory of §IV, or the
// MgD/Stash comparison points), and a scale, then Run.
//
//	res := tinydir.Run(tinydir.Options{
//	    App:    tinydir.App("barnes"),
//	    Scheme: tinydir.TinyDirectory(1.0/128, true, true),
//	    Scale:  tinydir.ScaleExperiment,
//	})
//	fmt.Println(res.Metrics.Cycles)
package tinydir

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tinydir/internal/core"
	"tinydir/internal/dir"
	"tinydir/internal/obs"
	"tinydir/internal/proto"
	"tinydir/internal/system"
	"tinydir/internal/trace"
	"tinydir/internal/tracefile"
)

// Profile re-exports the synthetic application model.
type Profile = trace.Profile

// Metrics re-exports the simulation metrics.
type Metrics = system.Metrics

// ObsConfig re-exports the observability configuration (see internal/obs):
// epoch sampling interval, latency histograms, trace-span budget, and the
// stall watchdog window.
type ObsConfig = obs.Config

// ObsRecorder re-exports the per-run observability recorder. A recorder
// belongs to exactly one run: it accumulates that run's epoch series,
// latency histograms and trace spans, to be dumped after the run returns.
type ObsRecorder = obs.Recorder

// EpochSample re-exports one closed epoch of the sampler's time series
// (counter deltas over the epoch, plus derivation helpers like IPC).
type EpochSample = obs.EpochSample

// DefaultEpochInterval is the default epoch sampling period in cycles.
const DefaultEpochInterval = obs.DefaultEpochInterval

// NewObsRecorder builds a recorder for one run, or nil when the config
// enables nothing (a nil recorder is the documented "off" state and costs
// one predictable branch per event).
func NewObsRecorder(c ObsConfig) *ObsRecorder { return obs.NewRecorder(c) }

// Apps returns the 17 application profiles of Table II.
func Apps() []Profile { return trace.Apps() }

// FamilyApps returns the five specialized workload-family reference
// profiles (false-sharing, lock-contention, producer-consumer,
// work-stealing, multiprogram); see internal/trace/families.go.
func FamilyApps() []Profile { return trace.FamilyApps() }

// App returns a profile by name — one of the 17 applications or the five
// family profiles — panicking on unknown names (the set is static).
func App(name string) Profile {
	p, ok := trace.AppByName(name)
	if !ok {
		panic(fmt.Sprintf("tinydir: unknown application %q", name))
	}
	return p
}

// TraceInput is a decoded trace file, driving the machine in place of
// the synthetic generator. Obtain one with LoadTraceFile (or build it
// from any [][]trace.Ref). The Digest identifies the trace content in
// store keys; Stats carries the generator-side trace.* measurements
// that replay must surface to stay bit-identical with direct runs.
type TraceInput struct {
	Name   string
	Digest string
	Stats  map[string]uint64
	Traces [][]trace.Ref
}

// Cores returns the number of per-core streams.
func (t *TraceInput) Cores() int { return len(t.Traces) }

// LoadTraceFile reads a trace file written by cmd/tracegen (or any
// producer of the internal/tracefile format).
func LoadTraceFile(path string) (*TraceInput, error) {
	tf, err := tracefile.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if c := len(tf.Traces); c < 2 || c&(c-1) != 0 {
		return nil, fmt.Errorf("tinydir: trace file %s has %d cores; the machine needs a power of two >= 2", path, c)
	}
	return &TraceInput{Name: tf.Name, Digest: tf.Digest, Stats: tf.Stats, Traces: tf.Traces}, nil
}

// SchemeKind enumerates the coherence-tracking organizations.
type SchemeKind int

const (
	// KindSparse is the traditional sparse directory baseline.
	KindSparse SchemeKind = iota
	// KindSharedOnly is the Fig. 3 limit study (shared blocks only).
	KindSharedOnly
	// KindSharedOnlySkew is its 4-way skew-associative variant.
	KindSharedOnlySkew
	// KindInLLC is the §III in-LLC tracking scheme (no directory).
	KindInLLC
	// KindInLLCTagExt is the storage-heavy tag-extended variant.
	KindInLLCTagExt
	// KindTiny is the §IV tiny directory.
	KindTiny
	// KindMgD is the multi-grain directory comparison point.
	KindMgD
	// KindStash is the Stash directory comparison point.
	KindStash
)

// Scheme selects and parameterizes a coherence-tracking organization.
type Scheme struct {
	Kind SchemeKind
	// Ratio is the directory size as a fraction of the 1x size
	// (aggregate private L2 blocks); 2.0 is the paper's reference
	// baseline. Ignored by the in-LLC schemes.
	Ratio float64
	// GNRU and Spill select the tiny-directory policy stack.
	GNRU, Spill bool
	// SpillWindow overrides the spill observation window (0 = the
	// paper's 8K accesses; tests use smaller values).
	SpillWindow uint64
	// FixedGenLen pins the gNRU generation length (in 4K-cycle units)
	// instead of the paper's adaptive estimate — the generation-length
	// ablation knob. 0 = adaptive.
	FixedGenLen uint64
	// EntryFormat narrows the sparse directory's sharer encoding:
	// "" or "fullmap" (the paper's default), "ptrK" (K exact pointers,
	// coarse overflow), or "coarseG" (one bit per G cores). Only
	// meaningful for KindSparse — the §I-A composability ablation.
	EntryFormat string
}

// SparseDirectory returns a traditional sparse directory scheme.
func SparseDirectory(ratio float64) Scheme { return Scheme{Kind: KindSparse, Ratio: ratio} }

// SparseDirectoryWithFormat returns a sparse directory whose sharer
// field uses a narrowed encoding ("ptr4", "coarse8", ...); see
// Scheme.EntryFormat.
func SparseDirectoryWithFormat(ratio float64, format string) Scheme {
	return Scheme{Kind: KindSparse, Ratio: ratio, EntryFormat: format}
}

// SharedOnlyDirectory returns the Fig. 3 limit-study scheme.
func SharedOnlyDirectory(ratio float64, skewed bool) Scheme {
	k := KindSharedOnly
	if skewed {
		k = KindSharedOnlySkew
	}
	return Scheme{Kind: k, Ratio: ratio}
}

// InLLC returns the §III scheme; tagExtended selects the storage-heavy
// variant of Fig. 4.
func InLLC(tagExtended bool) Scheme {
	if tagExtended {
		return Scheme{Kind: KindInLLCTagExt}
	}
	return Scheme{Kind: KindInLLC}
}

// TinyDirectory returns the §IV scheme with the selected policies.
func TinyDirectory(ratio float64, gnru, spill bool) Scheme {
	return Scheme{Kind: KindTiny, Ratio: ratio, GNRU: gnru, Spill: spill}
}

// MgD returns the multi-grain directory comparison scheme.
func MgD(ratio float64) Scheme { return Scheme{Kind: KindMgD, Ratio: ratio} }

// Stash returns the Stash directory comparison scheme.
func Stash(ratio float64) Scheme { return Scheme{Kind: KindStash, Ratio: ratio} }

// String names the scheme like the paper's figure legends.
func (s Scheme) String() string {
	switch s.Kind {
	case KindSparse:
		if s.EntryFormat != "" && s.EntryFormat != "fullmap" {
			return fmt.Sprintf("sparse-%s-%s", ratioName(s.Ratio), s.EntryFormat)
		}
		return fmt.Sprintf("sparse-%s", ratioName(s.Ratio))
	case KindSharedOnly:
		return fmt.Sprintf("sharedonly-%s", ratioName(s.Ratio))
	case KindSharedOnlySkew:
		return fmt.Sprintf("sharedonly-skew-%s", ratioName(s.Ratio))
	case KindInLLC:
		return "inllc"
	case KindInLLCTagExt:
		return "inllc-tagext"
	case KindTiny:
		n := fmt.Sprintf("tiny-%s-dstra", ratioName(s.Ratio))
		if s.GNRU {
			n += "+gnru"
		}
		if s.Spill {
			n += "+dynspill"
		}
		return n
	case KindMgD:
		return fmt.Sprintf("mgd-%s", ratioName(s.Ratio))
	case KindStash:
		return fmt.Sprintf("stash-%s", ratioName(s.Ratio))
	}
	return "unknown"
}

// parseFormat maps an EntryFormat string to the dir-package format.
func parseFormat(s string) dir.Format {
	switch {
	case s == "" || s == "fullmap":
		return nil
	case strings.HasPrefix(s, "ptr"):
		k, err := strconv.Atoi(s[3:])
		if err != nil || k <= 0 {
			panic(fmt.Sprintf("tinydir: bad entry format %q", s))
		}
		return dir.LimitedPtr{K: k}
	case strings.HasPrefix(s, "coarse"):
		g, err := strconv.Atoi(s[6:])
		if err != nil || g <= 0 {
			panic(fmt.Sprintf("tinydir: bad entry format %q", s))
		}
		return dir.Coarse{G: g}
	}
	panic(fmt.Sprintf("tinydir: unknown entry format %q", s))
}

func ratioName(r float64) string {
	if r >= 1 {
		return fmt.Sprintf("%gx", r)
	}
	return fmt.Sprintf("1/%.0fx", 1/r)
}

func (s Scheme) newTracker(cfg system.Config) func(int) proto.Tracker {
	switch s.Kind {
	case KindSparse:
		if f := parseFormat(s.EntryFormat); f != nil {
			return func(int) proto.Tracker {
				return dir.NewSparseWithFormat(cfg.DirEntriesPerSlice(s.Ratio), f)
			}
		}
		return func(int) proto.Tracker { return dir.NewSparse(cfg.DirEntriesPerSlice(s.Ratio)) }
	case KindSharedOnly:
		return func(int) proto.Tracker { return dir.NewSharedOnly(cfg.DirEntriesPerSlice(s.Ratio), false) }
	case KindSharedOnlySkew:
		return func(int) proto.Tracker { return dir.NewSharedOnly(cfg.DirEntriesPerSlice(s.Ratio), true) }
	case KindInLLC:
		return func(int) proto.Tracker { return core.NewInLLC(false) }
	case KindInLLCTagExt:
		return func(int) proto.Tracker { return core.NewInLLC(true) }
	case KindTiny:
		return func(int) proto.Tracker {
			return core.NewTiny(core.TinyConfig{
				Entries:        cfg.DirEntriesPerSlice(s.Ratio),
				GNRU:           s.GNRU,
				Spill:          s.Spill,
				WindowAccesses: s.SpillWindow,
				FixedGenLen:    s.FixedGenLen,
			})
		}
	case KindMgD:
		return func(int) proto.Tracker { return dir.NewMgD(cfg.DirEntriesPerSlice(s.Ratio)) }
	case KindStash:
		return func(int) proto.Tracker { return dir.NewStash(cfg.DirEntriesPerSlice(s.Ratio)) }
	}
	panic("tinydir: unknown scheme kind")
}

// Scale selects the machine size and trace length of a run. The paper's
// machine is ScaleFull; ScaleExperiment shrinks it 4x in every dimension
// (preserving all capacity ratios) so the whole figure suite runs in
// minutes on one CPU; ScaleTest is for unit tests.
type Scale struct {
	Name  string
	Cores int
	Refs  int
	// HalveHierarchy halves the cache hierarchy set counts (the §V-A
	// robustness experiment).
	HalveHierarchy bool
}

var (
	// ScaleTest: 8 cores, small caches.
	ScaleTest = Scale{Name: "test", Cores: 8, Refs: 1500}
	// ScaleExperiment: 32 cores, capacity ratios of Table I.
	ScaleExperiment = Scale{Name: "experiment", Cores: 32, Refs: 4000}
	// ScaleFull: the paper's 128-core machine.
	ScaleFull = Scale{Name: "full", Cores: 128, Refs: 8000}
)

// ScaleByName returns the preset scale named "test", "experiment" or
// "full".
func ScaleByName(name string) (Scale, error) {
	for _, sc := range []Scale{ScaleTest, ScaleExperiment, ScaleFull} {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scale{}, fmt.Errorf("unknown scale %q", name)
}

func (sc Scale) machine() system.Config {
	var cfg system.Config
	switch {
	case sc.Cores <= 8:
		cfg = system.TestConfig(sc.Cores)
	case sc.Cores >= 128:
		cfg = system.DefaultConfig(sc.Cores)
	default:
		// Scaled-down Table I machine: private and shared capacities
		// shrink together so every ratio (directory sizes, LLC blocks =
		// 2x aggregate L2 blocks) is preserved.
		cfg = system.DefaultConfig(sc.Cores)
		cfg.L1Sets = 32
		cfg.L2Sets = 64
		cfg.LLCSets = 64
	}
	if sc.HalveHierarchy {
		cfg.L1Sets /= 2
		cfg.L2Sets /= 2
		cfg.LLCSets /= 2
	}
	return cfg
}

// Options configures one simulation.
type Options struct {
	App    Profile
	Scheme Scheme
	Scale  Scale
	// Trace, when non-nil, drives the machine from a decoded trace file
	// instead of generating App's traces: App (except its Name default)
	// and the Scale's core/reference counts are ignored — the machine is
	// sized from the trace itself — and the trace digest enters the store
	// key so identical files dedup and changed content misses.
	Trace *TraceInput
	// MaxEvents bounds the run (0 = default safety bound).
	MaxEvents uint64
	// Obs, when non-nil, attaches the time-resolved observability layer to
	// this run. Recording is pure observation — metrics and event order are
	// bit-identical with or without it — so Obs does not contribute to the
	// store key.
	Obs *ObsRecorder
	// FaultRate > 0 arms the deterministic fault-injection layer (see
	// internal/fault and DESIGN.md §10) at a uniform rate: mesh delay
	// jitter, message drops and duplicates, ECC-detected tracker
	// corruption and DRAM abort-and-retry, all drawn from a counter-based
	// PRNG keyed by FaultSeed so one (rate, seed) pair replays
	// bit-identically. Rate 0 is the documented off state — the run is
	// bit-identical to one that never mentions faults. Both knobs are part
	// of the store key: faulted runs never mix with clean ones.
	FaultRate float64
	FaultSeed uint64
	// Timeout bounds the run's wall-clock time (0 = none). A run that
	// exceeds it panics with a *RunTimeoutError carrying the stalled
	// machine dump; inside a Suite sweep the panic is caught and the run
	// quarantined (see RunFailure). Wall clock never affects simulated
	// behavior, so Timeout is not part of the store key.
	Timeout time.Duration
}

// Result is the outcome of one simulation.
type Result struct {
	App     string
	Scheme  string
	Cores   int
	Metrics Metrics
}

// Run executes one configuration to completion. Defaulting (scale, spill
// window, event budget) lives in normalizeOptions so Run and the
// store-backed RunWithStore agree on what a configuration means.
func Run(o Options) Result {
	return RunWithStore(o, nil, false)
}

// RunAll executes the given configurations on a bounded worker pool and
// returns the results in input order. Every simulation is fully isolated
// (its own event engine, trace generator and metric sinks), so runs are
// independent and the result for opts[i] is bit-identical whatever the
// worker count. workers <= 0 selects runtime.NumCPU(); workers == 1 runs
// strictly serially on the calling goroutine.
func RunAll(opts []Options, workers int) []Result {
	results := make([]Result, len(opts))
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(opts) {
		workers = len(opts)
	}
	if workers <= 1 {
		for i, o := range opts {
			results[i] = Run(o)
		}
		return results
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(opts) {
					return
				}
				results[i] = Run(opts[i])
			}
		}()
	}
	wg.Wait()
	return results
}
