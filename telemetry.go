package tinydir

// Fleet-wide telemetry glue (DESIGN.md §13): the tinydir layer binds the
// generic internal/telemetry registry to its moving parts — sweep
// progress from the Reporter, the run store's backend, the distributed
// coordinator — so `experiments -http` serves one /metrics page covering
// the whole process.

import (
	"tinydir/internal/runstore"
	"tinydir/internal/telemetry"
)

// RegisterSweepMetrics exports the Reporter's live sweep progress on reg
// as tinydir_sweep_* gauges. Everything is read at scrape time; the
// sweep's hot path is untouched.
func RegisterSweepMetrics(reg *telemetry.Registry, mon *Reporter) {
	if reg == nil || mon == nil {
		return
	}
	field := func(name, help string, get func(SweepStatus) float64) {
		reg.GaugeFunc(name, help, func() float64 { return get(mon.Snapshot()) })
	}
	field("tinydir_sweep_planned", "simulations planned so far", func(s SweepStatus) float64 { return float64(s.Planned) })
	field("tinydir_sweep_done", "simulations completed", func(s SweepStatus) float64 { return float64(s.Done) })
	field("tinydir_sweep_served", "results answered from the run store without simulating", func(s SweepStatus) float64 { return float64(s.Served) })
	field("tinydir_sweep_failed", "runs quarantined by panic or deadline", func(s SweepStatus) float64 { return float64(s.Failed) })
	field("tinydir_sweep_active", "simulations executing right now", func(s SweepStatus) float64 { return float64(len(s.Active)) })
	field("tinydir_sweep_elapsed_seconds", "wall clock since the sweep started", func(s SweepStatus) float64 { return s.Elapsed.Seconds() })
	field("tinydir_sweep_eta_seconds", "estimated seconds to completion (0 = unknown)", func(s SweepStatus) float64 { return s.ETA.Seconds() })
	field("tinydir_sweep_store_hit_ratio", "fraction of completed runs served from the store", func(s SweepStatus) float64 {
		if s.Done == 0 {
			return 0
		}
		return float64(s.Served) / float64(s.Done)
	})
}

// EnableTelemetry wraps the store's backend with per-op latency, byte
// and error series labeled backend=kind ("dir" on a coordinator, "http"
// or "lru" on a worker). On a store whose outermost layer is the
// integrity wrapper, kind labels the layer beneath it — the view
// AttachSweepServiceCfg serves to workers — and the wrapper itself is
// rebuilt over that view and labeled "verified". Call before the
// backend is shared so every consumer sees the instrumented view. A nil
// reg leaves the store untouched.
func (s *RunStore) EnableTelemetry(reg *telemetry.Registry, kind string) {
	m := runstore.NewMetrics(reg)
	if v, ok := s.b.(*runstore.Verified); ok && m != nil {
		s.b = m.Instrument(runstore.NewVerified(m.Instrument(v.Unwrap(), kind)), "verified")
		return
	}
	s.b = m.Instrument(s.b, kind)
}

// EnableTelemetry registers the coordinator's sweepd_* series on reg.
func (svc *SweepService) EnableTelemetry(reg *telemetry.Registry) {
	svc.Coord.EnableMetrics(reg)
}
