package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"time"

	"tinydir"
	"tinydir/internal/runstore"
)

// pins are the per-workload digests of seed 0 at full size: sha256 over
// one pass's ordered Result JSONs. The fleet's pin was computed from the
// same units run locally, so a match also shows the fleet path returns
// exactly the local results.
//
//go:embed pins.json
var pinsJSON []byte

func pins() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &m); err != nil {
		panic(fmt.Sprintf("bench: pins.json: %v", err))
	}
	return m
}

// minPasses is the fewest passes a measurement makes over the unit list,
// however short -seconds is: each unit's fastest run is taken from at
// least three, and the tail percentile is chosen for that many.
const minPasses = 3

// env is one workload instantiated for one seed in this process.
type env struct {
	w     workload
	sz    sizes
	seed  uint64
	units []tinydir.Options
	dir   string // scratch space for stores and journals
	n     int    // scratch directories handed out
}

func newEnv(w workload, sz sizes, seed uint64, work string) (*env, error) {
	dir := filepath.Join(work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{w: w, sz: sz, seed: seed, units: w.units(seed, sz), dir: dir}, nil
}

func (e *env) close() { os.RemoveAll(e.dir) }

func (e *env) scratch(kind string) string {
	e.n++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d", kind, e.n))
}

// pass runs units through the workload's path once and returns the runs
// and the pass's wall time. A serial path's wall is the sum of its units;
// the fleet's is from the first dispatch to the last result.
func (e *env) pass(units []tinydir.Options) ([]unitRun, time.Duration, error) {
	switch e.w.path {
	case pathStore:
		runs, err := storePass(units, e.scratch("store"))
		return runs, sumDur(runs), err
	case pathFleet:
		return fleetPass(units, e.scratch("fleet"), units[0].Scale, nil)
	}
	runs := localPass(units)
	return runs, sumDur(runs), nil
}

func sumDur(runs []unitRun) time.Duration {
	var d time.Duration
	for _, r := range runs {
		d += r.dur
	}
	return d
}

// setup runs the first unit once, untimed, through the workload's path:
// this fills the slab pools and, for the fleet, opens a journal, starts
// the servers and has a worker join.
func (e *env) setup() error {
	runs, _, err := e.pass(e.units[:1])
	if err == nil && runs[0].err != "" {
		err = fmt.Errorf("%s", runs[0].err)
	}
	return err
}

// childResult is what a workload's child process reports.
type childResult struct {
	Units     int                `json:"units"` // unit executions per pass
	Passes    int                `json:"passes"`
	Refs      float64            `json:"refs"` // trace references per pass
	WallS     float64            `json:"wall_s"`
	UnitMS    []float64          `json:"unit_ms"`
	TailPct   float64            `json:"tail_pct"`
	Mallocs   uint64             `json:"mallocs"`
	Bytes     uint64             `json:"bytes"`
	RssMB     float64            `json:"rss_mb"` // peak resident set after the measured passes
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"digest"`
	Pin       string             `json:"pin"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     string             `json:"spans,omitempty"`
}

func (r *childResult) fail(n int, format string, args ...interface{}) {
	r.Failed += n
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (e *env) refs(runs []unitRun) float64 {
	var n float64
	for _, r := range runs {
		sc := e.units[r.unit].Scale
		n += float64(sc.Cores) * float64(sc.Refs)
	}
	return n
}

// check compares a pass against the reference pass: every unit must
// have succeeded and returned the same bytes, and a store pass's warm
// half must equal its cold half.
func (e *env) check(res *childResult, runs, ref []unitRun) {
	for i, r := range runs {
		switch {
		case r.err != "":
			res.fail(1, "%s %s: %s", e.units[r.unit].App.Name, e.units[r.unit].Scheme, r.err)
		case ref != nil && !bytes.Equal(r.js, ref[i].js):
			res.fail(1, "%s %s: result differs between passes", e.units[r.unit].App.Name, e.units[r.unit].Scheme)
		}
	}
	if e.w.path == pathStore {
		n := len(runs) / 2
		for i := 0; i < n; i++ {
			if runs[i].err == "" && !bytes.Equal(runs[i].js, runs[n+i].js) {
				res.fail(1, "%s: warm result differs from cold", e.units[i].App.Name)
			}
		}
	}
}

// checkPin compares the first pass's digest with the pinned one, which
// exists for seed 0 at full size only.
func (e *env) checkPin(res *childResult, runs []unitRun) {
	res.Digest = digest(runs)
	pin, ok := pins()[e.w.name]
	switch {
	case e.seed != 0 || e.sz != fullSizes || !ok:
		res.Pin = "unpinned"
	case pin == res.Digest:
		res.Pin = "match"
	default:
		res.Pin = "mismatch"
		res.fail(len(runs), "digest %s does not match pin %s", res.Digest, pin)
	}
}

// crossCheck reruns every eighth fleet unit locally: the fleet must
// return exactly what tinydir.Run does.
func (e *env) crossCheck(res *childResult, runs []unitRun) {
	if e.w.path != pathFleet {
		return
	}
	for i := 0; i < len(e.units); i += 8 {
		local := localPass(e.units[i : i+1])[0]
		if local.err != "" || !bytes.Equal(local.js, runs[i].js) {
			res.fail(1, "%s %s: fleet result differs from a local run", e.units[i].App.Name, e.units[i].Scheme)
		}
	}
}

// measure runs whole passes for about seconds (the pass count whose end
// lies nearest, and at least minPasses) and reports the run's
// measurements, with the last pass and its wall time.
func (e *env) measure(seconds float64) (res childResult, last []unitRun, lastWall time.Duration) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var passes [][]unitRun
	var walls []float64
	start := time.Now()
	var took time.Duration
	for len(passes) < minPasses || (time.Since(start)+took/2).Seconds() < seconds {
		passStart := time.Now()
		runs, wall, err := e.pass(e.units)
		took = time.Since(passStart)
		res.Attempted += len(runs)
		if err != nil {
			res.fail(1, "pass %d: %v", len(passes), err)
			break
		}
		passes = append(passes, runs)
		walls = append(walls, wall.Seconds())
		last, lastWall = runs, wall
	}
	runtime.ReadMemStats(&ms1)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		res.RssMB = float64(ru.Maxrss) / 1024
	}
	if len(passes) == 0 {
		return res, nil, 0
	}
	first := passes[0]
	res.Units, res.Passes, res.Refs = len(first), len(passes), e.refs(first)
	res.Mallocs, res.Bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	res.TailPct = tailPercentile(minPasses * len(first))
	for i, runs := range passes {
		if i == 0 {
			e.check(&res, runs, nil)
		} else {
			e.check(&res, runs, first)
		}
		for _, r := range runs {
			res.UnitMS = append(res.UnitMS, ms(r.dur))
		}
	}
	e.checkPin(&res, first)
	e.crossCheck(&res, first)
	// Noise on a shared host only ever adds time, in bursts that last
	// seconds, so each timing is the fastest of the passes: the sum of
	// each unit's fastest run for a serial path, and the fastest pass for
	// the fleet, whose units overlap.
	if e.w.path == pathFleet {
		res.WallS = slices.Min(walls)
	} else {
		for u := range first {
			fastest := first[u].dur
			for _, runs := range passes[1:] {
				fastest = min(fastest, runs[u].dur)
			}
			res.WallS += fastest.Seconds()
		}
	}
	return res, last, lastWall
}

// traced makes the separate traced run: the untraced measurement, then
// its last pass again traced layer by layer, probes of the layers the
// workload's own path does not reach, and the microbenchmarks. Every
// traced unit's Metrics must equal the untraced result for the same unit.
func (e *env) traced(seconds float64) childResult {
	res, ref, refWall := e.measure(seconds)
	if ref == nil {
		return res
	}
	want := make([]tinydir.Metrics, len(e.units))
	for _, r := range ref {
		want[r.unit] = r.res.Metrics
	}
	same := func(name string, runs []unitRun) {
		res.Attempted += len(runs)
		for _, r := range runs {
			switch {
			case r.err != "":
				res.fail(1, "%s: %s", name, r.err)
			case !reflect.DeepEqual(r.res.Metrics, want[r.unit]):
				res.fail(1, "%s: traced %s %s Metrics differ from untraced", name,
					e.units[r.unit].App.Name, e.units[r.unit].Scheme)
			}
		}
	}

	tr := newTracer()
	main, probe := newSimTrace(tr, phaseMain), newSimTrace(tr, phaseProbe)
	var ft *fleetTrace
	var wall time.Duration
	switch e.w.path {
	case pathLocal:
		runs := e.rebuildPass(main, e.units, nil)
		wall = sumDur(runs)
		same("traced pass", runs)
	case pathStore:
		runs, err := e.tracedStorePass(main, e.units)
		if err != nil {
			res.fail(1, "traced store pass: %v", err)
		}
		wall = sumDur(runs)
		same("traced store pass", runs)
	case pathFleet:
		var runs []unitRun
		var err error
		runs, wall, ft, err = e.tracedFleetPass(tr, e.units)
		if err != nil {
			res.fail(1, "traced fleet pass: %v", err)
		}
		same("traced fleet pass", runs)
		same("traced rebuild", e.rebuildPass(main, e.units, nil))
	}
	if e.w.path != pathStore {
		runs, err := e.tracedStorePass(probe, e.units[:min(2, len(e.units))])
		if err != nil {
			res.fail(1, "store probe: %v", err)
		}
		same("store probe", runs)
	}
	if e.w.path != pathFleet {
		tr.setUnit(-1, phaseProbe)
		var runs []unitRun
		var err error
		runs, _, ft, err = e.tracedFleetPass(tr, e.units[:min(dispatchers, len(e.units))])
		if err != nil {
			res.fail(1, "fleet probe: %v", err)
		}
		same("fleet probe", runs)
	}
	// A tracker's Begin and Commit times need units that use it: time each
	// tracker the workload leaves out on its first unit with that
	// tracker's scheme.
	missing := newSimTrace(tr, phaseProbe)
	for _, m := range trackerModules {
		if main.trackers[m.name].beginSamples > 0 {
			continue
		}
		o := e.units[0]
		o.Scheme = m.scheme
		res.Attempted += 2
		untraced := localPass([]tinydir.Options{o})[0]
		traced := e.rebuildPass(missing, []tinydir.Options{o}, nil)[0]
		if untraced.err != "" || traced.err != "" || !reflect.DeepEqual(untraced.res.Metrics, traced.res.Metrics) {
			res.fail(1, "%s probe: traced Metrics differ from untraced (%s%s)", m.name, untraced.err, traced.err)
		}
	}
	mic, err := micros(e.scratch("micro"), e.sz.micro)
	if err != nil {
		res.fail(1, "microbenchmarks: %v", err)
		mic = map[string]float64{}
	}
	res.Layers = layers(tr, main, probe, missing, ft, mic)
	res.Layers["bench.trace_overhead_pct"] = 100 * (wall.Seconds()/refWall.Seconds() - 1)
	res.Spans = filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("spans-%s.json", e.w.name))
	if err := tr.write(res.Spans); err != nil {
		res.fail(1, "writing spans: %v", err)
	}
	return res
}

// rebuildPass runs units through the traced rebuild.
func (e *env) rebuildPass(st *simTrace, units []tinydir.Options, store *tinydir.RunStore) []unitRun {
	runs := make([]unitRun, len(units))
	for i, o := range units {
		st.tr.setUnit(i, st.phase)
		runs[i] = timeUnit(i, func() (tinydir.Result, error) { return st.rebuild(o, store) })
	}
	return runs
}

// tracedStorePass is storePass through the traced rebuild, with a timed
// backend placed above and below the integrity layer of the directory
// store, followed by a resume read of every stored result.
func (e *env) tracedStorePass(st *simTrace, units []tinydir.Options) ([]unitRun, error) {
	dir := e.scratch("store")
	defer os.RemoveAll(dir)
	d, err := runstore.NewDir(dir)
	if err != nil {
		return nil, err
	}
	store := tinydir.NewRunStoreWithBackend(&timedBackend{layer: "verified", tr: st.tr,
		Backend: runstore.NewVerified(&timedBackend{layer: "dir", tr: st.tr, Backend: d})})
	runs := e.rebuildPass(st, units, store)
	if err := os.RemoveAll(filepath.Join(dir, runstore.KindResults)); err != nil {
		return runs, err
	}
	runs = append(runs, e.rebuildPass(st, units, store)...)
	for i, o := range units {
		st.tr.setUnit(i, st.phase)
		r, ok, err := store.GetResult(store.Key(o))
		if err != nil || !ok || !reflect.DeepEqual(r, runs[len(units)+i].res) {
			return runs, fmt.Errorf("resume read of %s %s: ok=%v err=%v", o.App.Name, o.Scheme, ok, err)
		}
	}
	return runs, nil
}

// tracedFleetPass is fleetPass with the coordinator's HTTP API timed.
func (e *env) tracedFleetPass(tr *tracer, units []tinydir.Options) ([]unitRun, time.Duration, *fleetTrace, error) {
	keys := make([]string, len(units))
	for i, o := range units {
		keys[i] = tinydir.NewRunStoreWithBackend(nil).Key(o)
	}
	ft := newFleetTrace(tr, keys)
	runs, wall, err := fleetPass(units, e.scratch("fleet"), units[0].Scale, ft)
	return runs, wall, ft, err
}
