package tinydir

// Observability overhead tracking, the companion of bench_hotpath_test.go.
// Two contracts are measured and recorded in BENCH_obs.json:
//
//   - disabled cost: with no recorder attached the hot path must be
//     unchanged — the nil-checked sinks add one predictable branch, no
//     allocations (allocs/ref is compared against the same sweep in
//     BENCH_hotpath.json);
//   - enabled cost: a Fig. 1 sweep at 128 cores with epoch sampling at the
//     default interval plus latency histograms must stay within a few
//     percent of the bare sweep (the acceptance bound is 5%).
//
// Regenerate with:
//
//	go test -run TestObsOverheadJSON -obs.json BENCH_obs.json .
//
// allocs/ref is deterministic; wall and ns/ref reflect the machine. To
// keep the recorded slowdown out of the noise floor, each config is
// measured obsOverheadRounds times, interleaved (off, on, off, on, ...)
// so clock drift and background load hit both configs alike. The
// recorded slowdown is the median of the per-round deltas — pairing the
// off/on runs of the same round cancels drift that independent medians
// let through — and a negative median (the instrumented sweep "faster",
// i.e. the true cost is below this machine's noise floor) records as
// 0.0 rather than a nonsense negative.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
)

var obsJSONPath = flag.String("obs.json", "", "write observability overhead measurements to this file (see BENCH_obs.json)")

// obsOverheadCases builds the measured pair: the bare Fig. 1 sweep at 128
// cores (identical to BENCH_hotpath.json's Fig01At128) and the same sweep
// with epoch sampling and latency histograms attached.
func obsOverheadCases() []hotpathCase {
	sweep := func(cfg ObsConfig) func() uint64 {
		return func() uint64 {
			s := NewSuite(hotScale128)
			s.Obs = cfg
			f := buildFigure(s, "1")
			if len(f.Series) == 0 {
				panic("obs overhead: Fig1 produced no data")
			}
			return uint64(s.Runs()) * uint64(hotScale128.Cores) * uint64(hotScale128.Refs)
		}
	}
	return []hotpathCase{
		{"Fig01At128/obs-off", sweep(ObsConfig{})},
		{"Fig01At128/obs-epochs", sweep(ObsConfig{EpochInterval: DefaultEpochInterval, Latency: true})},
	}
}

// obsOverheadRounds is how many interleaved measurements of each config
// feed the recorded medians. One round proved noisy enough to record a
// negative slowdown (-2.6%: the instrumented sweep "faster" than bare,
// pure scheduling luck); five interleaved rounds keep any single
// round's scheduling luck from defining the number.
const obsOverheadRounds = 5

// medianMeasurement picks the round with the median ns/ref.
func medianMeasurement(ms []hotpathMeasurement) hotpathMeasurement {
	sorted := append([]hotpathMeasurement(nil), ms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NsPerRef < sorted[j].NsPerRef })
	return sorted[len(sorted)/2]
}

// TestObsOverheadJSON regenerates BENCH_obs.json when -obs.json is set;
// otherwise it is skipped.
func TestObsOverheadJSON(t *testing.T) {
	if *obsJSONPath == "" {
		t.Skip("pass -obs.json <path> to write observability overhead measurements")
	}
	round := func(v float64, digits int) float64 {
		p := math.Pow(10, float64(digits))
		return math.Round(v*p) / p
	}
	cases := obsOverheadCases()
	samples := make([][]hotpathMeasurement, len(cases))
	for r := 0; r < obsOverheadRounds; r++ {
		for i, c := range cases {
			m := measureHotpath(c)
			samples[i] = append(samples[i], m)
			t.Logf("round %d %s: %.1f ns/ref, %.3f allocs/ref (%d refs in %.0f ms)",
				r, m.Name, m.NsPerRef, m.AllocsPerRef, m.Refs, m.WallMS)
		}
	}
	var ms []hotpathMeasurement
	for i := range cases {
		m := medianMeasurement(samples[i])
		m.WallMS = round(m.WallMS, 0)
		m.NsPerRef = round(m.NsPerRef, 1)
		m.AllocsPerRef = round(m.AllocsPerRef, 3)
		m.BytesPerRef = round(m.BytesPerRef, 1)
		ms = append(ms, m)
	}
	// The slowdown pairs each round's off/on runs before taking the
	// median, so drift between rounds cancels; the per-config medians
	// above may come from different rounds and must not feed this.
	deltas := make([]float64, obsOverheadRounds)
	for r := 0; r < obsOverheadRounds; r++ {
		deltas[r] = 100 * (samples[1][r].NsPerRef - samples[0][r].NsPerRef) / samples[0][r].NsPerRef
	}
	sort.Float64s(deltas)
	slowdown := deltas[len(deltas)/2]
	if slowdown < 0 {
		t.Logf("median per-round slowdown %.1f%% is negative: cost below the noise floor, recording 0.0", slowdown)
		slowdown = 0
	}
	doc := struct {
		Comment     string               `json:"comment"`
		GoVersion   string               `json:"go_version"`
		Rounds      int                  `json:"rounds"`
		Sweeps      []hotpathMeasurement `json:"sweeps"`
		SlowdownPct float64              `json:"epoch_sampling_slowdown_pct"`
	}{
		Comment: "Observability overhead on the Fig. 1 sweep at 128 cores. 'obs-off' must match " +
			"BENCH_hotpath.json's Fig01At128 allocs/ref (nil recorder = one branch, no allocation); " +
			"'obs-epochs' attaches epoch sampling at the default interval plus latency histograms " +
			"and must stay within 5% wall. Each config is the median of 5 interleaved rounds; the " +
			"slowdown is the median of per-round deltas, recorded as 0.0 when negative (cost below " +
			"the machine's noise floor). Regenerate with " +
			"`go test -run TestObsOverheadJSON -obs.json BENCH_obs.json .`.",
		GoVersion:   runtime.Version(),
		Rounds:      obsOverheadRounds,
		Sweeps:      ms,
		SlowdownPct: round(slowdown, 1),
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*obsJSONPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s (epoch sampling slowdown %.1f%%)\n", *obsJSONPath, doc.SlowdownPct)
}
