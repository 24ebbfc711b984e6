// Package obs is the time-resolved observability layer: epoch metric
// sampling, per-class transaction latency histograms, Chrome trace-event
// export, and a stall watchdog. It exists so the aggregate end-of-run
// Metrics can be unfolded over time without perturbing the simulation.
//
// The layer follows the same contract as system.Config.Checker: every
// recording site is behind a nil check on a recorder (or one of its
// components), so the disabled path costs one predictable branch per
// event and allocates nothing. Recording never schedules events, never changes message timing,
// and never feeds back into the simulated machine; a run with a recorder
// attached produces bit-identical Metrics to a run without one (pinned by
// TestObsMetricsUnperturbed).
//
// All emitted artifacts — epoch CSV, histogram text, trace JSON — are
// byte-deterministic for a fixed configuration: samples and spans are
// appended in event-execution order, quantiles are derived from bucket
// bounds (no floating-point accumulation order dependence), and the
// writers use fixed formatting.
package obs

import "io"

// DefaultEpochInterval is the epoch length, in core cycles, used when a
// Config enables sampling without choosing one. Roughly a few thousand
// retirements per epoch at 128 cores: fine enough to see warmup and phase
// boundaries, coarse enough that sampling cost stays far below 5% of the
// run.
const DefaultEpochInterval = 10_000

// Config selects which observability pieces a Recorder carries. The zero
// value disables everything; any enabled piece brings the per-class
// request-to-retire latency histograms along.
type Config struct {
	// EpochInterval enables epoch sampling every that many core cycles
	// (0 disables). Samples land in an in-memory ring of DefaultEpochCap
	// entries; when it is full the oldest epochs are dropped and counted.
	EpochInterval uint64
	// TraceSpans enables the Chrome trace-event writer, bounding it to
	// that many spans (0 disables). The bound keeps long runs from
	// accumulating gigabytes; dropped spans are counted.
	TraceSpans int
	// WatchdogWindow arms the stall watchdog: if no core retires for that
	// many cycles, the in-flight state is dumped to StallOut (0 disables).
	WatchdogWindow uint64
	// StallOut receives watchdog dumps. Nil falls back to io.Discard so an
	// armed watchdog never panics on a missing writer.
	StallOut io.Writer
}

// Enabled reports whether the configuration turns on any recording.
func (c Config) Enabled() bool {
	return c.EpochInterval != 0 || c.TraceSpans != 0 || c.WatchdogWindow != 0
}

// Recorder bundles the per-run observability sinks. A nil *Recorder means
// observability is off; each component pointer is additionally nil when
// that piece is disabled, so hot paths test exactly the piece they feed.
// The latency histograms are always present.
// A Recorder belongs to one simulation: none of its methods are safe for
// concurrent use, except the ones explicitly documented as such
// (EpochSampler.LatestIPC, for live monitoring).
type Recorder struct {
	Epochs   *EpochSampler
	Latency  LatencyRecorder
	Trace    *TraceWriter
	Watchdog *Watchdog
}

// NewRecorder builds a Recorder with the pieces cfg enables, or returns
// nil when cfg enables nothing, preserving the nil-means-off contract.
func NewRecorder(cfg Config) *Recorder {
	if !cfg.Enabled() {
		return nil
	}
	r := &Recorder{}
	if cfg.EpochInterval != 0 {
		r.Epochs = newEpochSampler(cfg.EpochInterval, DefaultEpochCap)
	}
	if cfg.TraceSpans != 0 {
		r.Trace = newTraceWriter(cfg.TraceSpans)
	}
	if cfg.WatchdogWindow != 0 {
		out := cfg.StallOut
		if out == nil {
			out = io.Discard
		}
		r.Watchdog = newWatchdog(cfg.WatchdogWindow, out)
	}
	return r
}
