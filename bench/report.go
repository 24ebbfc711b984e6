package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// record is the full result of one invocation, written by -json.
type record struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Seed        uint64            `json:"seed"`
	Runs        int               `json:"runs"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Workloads   []*workloadRecord `json:"workloads"`
}

// workloadRecord is one workload's runs.
type workloadRecord struct {
	Name        string                  `json:"name"`
	Traced      bool                    `json:"traced"`
	Correct     bool                    `json:"correct"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	Errors      []string                `json:"errors,omitempty"`
	Units       int                     `json:"units"`
	TailPct     float64                 `json:"tail_pct"`
	Digests     []string                `json:"digests"`
	Pins        []string                `json:"pins"`
	Calibration []calibration           `json:"calibration"`
	Metrics     map[string]*metricStats `json:"metrics"`
	Spans       string                  `json:"spans,omitempty"`
}

// metricStats is one metric over a workload's runs.
type metricStats struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func (wr *workloadRecord) add(name, unit string, v float64) {
	m := wr.Metrics[name]
	if m == nil {
		m = &metricStats{Unit: unit}
		wr.Metrics[name] = m
	}
	m.Values = append(m.Values, v)
	m.Median, m.Q1, m.Q3 = median(m.Values), quantile(m.Values, 0.25), quantile(m.Values, 0.75)
}

// calibration is the fixed-work spin timed before and after a run.
type calibration struct {
	BeforeMS      float64 `json:"before_ms"`
	AfterMS       float64 `json:"after_ms"`
	DriftPct      float64 `json:"drift_pct"`
	NoiseFloorPct float64 `json:"noise_floor_pct"`
	Flagged       bool    `json:"flagged"`
}

func newCalibration(before, after []float64) calibration {
	all := append(append([]float64(nil), before...), after...)
	lo, hi := all[0], all[0]
	for _, v := range all {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	c := calibration{BeforeMS: median(before), AfterMS: median(after)}
	c.DriftPct = 100 * math.Abs(c.AfterMS/c.BeforeMS-1)
	c.NoiseFloorPct = 100 * (hi - lo) / median(all)
	c.Flagged = c.DriftPct > driftBound
	return c
}

// endToEnd are the metrics the result line carries without -trace.
var endToEnd = []string{"setup_s", "allocs_per_ref", "bytes_per_ref"}

// runLevel are every run's whole-run timings and memory. Their spread
// between runs on a shared host is too wide to bound, so the traced
// run's result line carries them with the per-layer metrics.
var runLevel = []string{"wall_s", "ns_per_ref", "unit_ms_p50", "unit_ms_tail", "peak_rss_mb"}

// printedOnly are printed but carried by the result line's attempted
// and failed.
var printedOnly = []string{"units", "fail_frac"}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_mb_s_"):
		return "MB/s"
	case strings.HasSuffix(name, "_ms_p50"), strings.HasSuffix(name, "_ms_tail"):
		return "ms"
	case strings.HasSuffix(name, "_ns"), strings.Contains(name, ".ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_share"):
		return "fraction"
	case name == "snapshot.mb_p50":
		return "MB"
	}
	return "count"
}

// print writes one "workload metric value unit" line per metric, the
// checks, and last the result line as JSON.
func (wr *workloadRecord) print(w io.Writer) error {
	var names []string
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if ri, rj := rank(names[i]), rank(names[j]); ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := wr.Metrics[n]
		// %v prints every digit a float64 needs.
		fmt.Fprintf(w, "%s %s %v %s", wr.Name, n, m.Median, m.Unit)
		if len(m.Values) > 1 {
			fmt.Fprintf(w, " q1=%v q3=%v n=%d", m.Q1, m.Q3, len(m.Values))
		}
		if n == "unit_ms_tail" {
			fmt.Fprintf(w, " (p%g over passes of %d units)", wr.TailPct, wr.Units)
		}
		fmt.Fprintln(w)
	}
	for i, d := range wr.Digests {
		fmt.Fprintf(w, "%s digest %s (%s)\n", wr.Name, d, wr.Pins[i])
	}
	for _, c := range wr.Calibration {
		flag := ""
		if c.Flagged {
			flag = fmt.Sprintf(" DRIFTED past %g%%", driftBound)
		}
		fmt.Fprintf(w, "%s calibration %.3f ms before, %.3f ms after, drift %.2f%%, noise floor %.2f%%%s\n",
			wr.Name, c.BeforeMS, c.AfterMS, c.DriftPct, c.NoiseFloorPct, flag)
	}
	if wr.Spans != "" {
		fmt.Fprintf(w, "%s spans %s\n", wr.Name, wr.Spans)
	}
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "%s FAILED %s\n", wr.Name, e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, n := range names {
		if wr.inResult(n) {
			metrics[n] = value{wr.Metrics[n].Median, wr.Metrics[n].Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return fmt.Errorf("%s result line: %w", wr.Name, err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// inResult reports whether the result line carries metric n: the
// end-to-end metrics without -trace, every other measured one with it.
func (wr *workloadRecord) inResult(n string) bool {
	return !slices.Contains(printedOnly, n) && slices.Contains(endToEnd, n) != wr.Traced
}

// rank orders the printed metrics: end-to-end, run-level, printed-only,
// then per-layer.
func rank(name string) int {
	if i := slices.Index(slices.Concat(endToEnd, runLevel, printedOnly), name); i >= 0 {
		return i
	}
	return len(endToEnd) + len(runLevel) + len(printedOnly)
}
