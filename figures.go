package tinydir

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tinydir/internal/energy"
)

// Figure is the data behind one of the paper's figures: one value per
// (series, column). Columns are usually the 17 applications plus an
// Average; Fig. 21 uses configuration names instead.
type Figure struct {
	ID    string
	Title string
	Cols  []string
	// Series preserves insertion order.
	Series []Series
	// Unit annotates the values ("x", "%", "pp", ...).
	Unit string
	// NoAverage suppresses the Average column (distributions).
	NoAverage bool
}

// Series is one line/bar group of a figure.
type Series struct {
	Name   string
	Values map[string]float64
}

// Avg returns the arithmetic mean over the figure's columns.
func (s Series) Avg(cols []string) float64 {
	if len(cols) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cols {
		sum += s.Values[c]
	}
	return sum / float64(len(cols))
}

// Fprint renders the figure as an aligned text table.
func (f Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s (unit: %s) ==\n", f.ID, f.Title, f.Unit)
	cols := append([]string{}, f.Cols...)
	if !f.NoAverage {
		cols = append(cols, "Average")
	}
	nameW := len("series")
	for _, s := range f.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	fmt.Fprintf(w, "%-*s", nameW+2, "series")
	for _, c := range cols {
		fmt.Fprintf(w, "%12s", trunc(c, 11))
	}
	fmt.Fprintln(w)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-*s", nameW+2, s.Name)
		for _, c := range cols {
			v := s.Values[c]
			if c == "Average" && !f.NoAverage {
				v = s.Avg(f.Cols)
			}
			fmt.Fprintf(w, "%12.3f", v)
		}
		fmt.Fprintln(w)
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Suite memoizes simulation runs so figures sharing configurations (e.g.
// every figure needs the 2x baseline) reuse them.
//
// Simulations are mutually independent (each Run owns its engine, trace
// generator and metric sinks), so a Suite executes the runs a figure
// needs on a bounded worker pool of Workers goroutines. Every figure is
// built in two passes: a dry pass that only records which (app, scheme)
// runs the figure touches, a parallel prefetch of the missing ones, and
// a real pass served entirely from the cache. The real pass is the same
// serial code as Workers == 1, so figure output is bit-identical at any
// worker count.
type Suite struct {
	Scale    Scale
	Progress io.Writer
	// Workers bounds concurrent simulations during prefetch; <= 1 runs
	// strictly serially. NewSuite defaults it to runtime.NumCPU().
	Workers int
	// Store, when set, persists every run's result on disk (see
	// RunStore); with Resume also set, results already in the store are
	// served without simulating, making an interrupted sweep resumable.
	Store  *RunStore
	Resume bool
	// Obs, when enabled, attaches a fresh observability recorder to every
	// simulated run; with ObsDir also set, each instrumented run's
	// artifacts (epoch CSV, latency histogram text, Chrome trace JSON) are
	// written there. Store-served results produce no artifacts — nothing
	// was simulated. Recording never changes results (see Options.Obs).
	Obs    ObsConfig
	ObsDir string
	// RunTimeout bounds each simulation's wall clock (0 = none). A run
	// that blows it is quarantined like a panicking one — the sweep
	// completes, Failures() reports it — instead of hanging the worker
	// pool forever.
	RunTimeout time.Duration
	// Dispatch, when set, replaces local simulation: every run the suite
	// would execute goes through it instead of the in-process
	// runWithStore path. The distributed sweep service plugs in here —
	// AttachSweepServiceCfg installs a Dispatch that enqueues the run as a
	// work unit and blocks until a fleet worker returns its Result. An
	// error from Dispatch is recorded like a quarantined run. The
	// figure-assembly passes are untouched, so output stays byte-
	// identical to a local sweep.
	Dispatch DispatchFunc

	sh *suiteShared
}

// DispatchFunc executes (or delegates) one planned run. simulated
// reports whether real simulation work happened (false when the result
// was served from a store).
type DispatchFunc func(o Options) (r Result, simulated bool, err error)

// suiteShared is the run cache and prefetch plan, shared with the derived
// sub-suite FigHalved builds so all runs land in one cache.
type suiteShared struct {
	mu        sync.Mutex
	cache     map[string]Result
	runs      int // simulations actually executed (store-served results excluded)
	planning  bool
	planned   map[string]bool
	plan      []plannedRun
	failures  []RunFailure
	rep       *Reporter   // lazily built; all progress output funnels through it
	cancelled atomic.Bool // Cancel() was called: claim no new runs
}

// RunFailure records one run that panicked or blew its deadline inside a
// sweep: the sweep went on without it, its slot holds a zero Result, and
// Artifact (when ObsDir was set) names the quarantine post-mortem.
type RunFailure struct {
	App, Scheme string
	Err         string
	Artifact    string
}

// plannedRun is one simulation a dry figure pass requested.
type plannedRun struct {
	key  string
	opts Options
}

// NewSuite creates a figure suite at the given scale.
func NewSuite(scale Scale) *Suite {
	return &Suite{
		Scale:   scale,
		Workers: runtime.NumCPU(),
		sh:      &suiteShared{cache: map[string]Result{}},
	}
}

// derived returns a sub-suite at another scale sharing this suite's cache,
// prefetch plan and worker budget.
func (s *Suite) derived(scale Scale) *Suite {
	return &Suite{Scale: scale, Progress: s.Progress, Workers: s.Workers,
		Store: s.Store, Resume: s.Resume, Obs: s.Obs, ObsDir: s.ObsDir,
		RunTimeout: s.RunTimeout, Dispatch: s.Dispatch, sh: s.sh}
}

// Cancel stops the sweep at the next run boundary: prefetch workers
// claim no further plan entries and serial builders skip remaining
// simulations, while in-flight runs complete normally — their results
// still flush to the store through the usual atomic write, so an
// interrupted sweep resumes exactly where it stopped. Figures built
// after Cancel contain zero-valued slots; callers must check
// Cancelled() and discard them.
func (s *Suite) Cancel() { s.sh.cancelled.Store(true) }

// Cancelled reports whether Cancel was called.
func (s *Suite) Cancelled() bool { return s.sh.cancelled.Load() }

// Monitor returns the suite's progress reporter, building it on first
// use. The reporter serializes progress lines across workers and tracks
// the counters behind its Snapshot — the live sweep monitor's data
// source. Derived sub-suites share it.
func (s *Suite) Monitor() *Reporter {
	sh := s.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.rep == nil {
		sh.rep = NewReporter(s.Progress)
	}
	return sh.rep
}

func (s *Suite) runKey(app Profile, scheme Scheme) string {
	key := app.Name + "|" + scheme.String() + "|" + s.Scale.Name
	if s.Scale.HalveHierarchy {
		key += "|halved"
	}
	return key
}

func (s *Suite) run(app Profile, scheme Scheme) Result {
	key := s.runKey(app, scheme)
	sh := s.sh
	sh.mu.Lock()
	if r, ok := sh.cache[key]; ok {
		sh.mu.Unlock()
		return r
	}
	if sh.planning {
		// Dry pass: record the run and hand back a zero result; only the
		// set of runs matters, the figure built from it is discarded.
		if !sh.planned[key] {
			sh.planned[key] = true
			sh.plan = append(sh.plan, plannedRun{key: key, opts: Options{App: app, Scheme: scheme, Scale: s.Scale}})
		}
		sh.mu.Unlock()
		return Result{App: app.Name, Scheme: scheme.String()}
	}
	sh.mu.Unlock()
	r, simulated := s.executeRun(Options{App: app, Scheme: scheme, Scale: s.Scale})
	sh.mu.Lock()
	sh.cache[key] = r
	if simulated {
		sh.runs++
	}
	sh.mu.Unlock()
	return r
}

// figure builds one figure, prefetching the runs it needs in parallel.
func (s *Suite) figure(build func() Figure) Figure {
	sh := s.sh
	sh.mu.Lock()
	if sh.planning {
		// A figure built while another one plans: the outer plan simply
		// covers both.
		sh.mu.Unlock()
		return build()
	}
	sh.planning = true
	sh.planned = map[string]bool{}
	sh.mu.Unlock()
	build() // dry pass: records every run the figure needs
	sh.mu.Lock()
	plan := sh.plan
	sh.plan, sh.planned, sh.planning = nil, nil, false
	sh.mu.Unlock()
	// The dry pass runs even in serial mode: the Reporter's planned count
	// (progress denominators, ETAs, the interrupt summary) must cover the
	// figure regardless of how many workers execute it.
	if len(plan) > 0 {
		s.Monitor().addPlanned(len(plan))
	}
	if s.Workers > 1 {
		s.prefetch(plan)
	}
	return build() // real pass: cached when prefetched, identical either way
}

// prefetch executes the planned runs on a bounded worker pool.
func (s *Suite) prefetch(plan []plannedRun) {
	workers := s.Workers
	if workers > len(plan) {
		workers = len(plan)
	}
	if workers < 1 {
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if s.sh.cancelled.Load() {
					return // graceful shutdown: claim nothing further
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(plan) {
					return
				}
				p := plan[i]
				r, simulated := s.executeRun(p.opts)
				s.sh.mu.Lock()
				s.sh.cache[p.key] = r
				if simulated {
					s.sh.runs++
				}
				s.sh.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// Runs returns the number of simulations actually executed so far.
// Results served from a Store under Resume are not counted — they cost no
// simulation.
func (s *Suite) Runs() int {
	s.sh.mu.Lock()
	defer s.sh.mu.Unlock()
	return s.sh.runs
}

// Failures returns the runs quarantined so far, in the order they failed.
// A sweep with failures still produces every figure (failed slots read as
// zero), so the caller must check this and exit nonzero.
func (s *Suite) Failures() []RunFailure {
	s.sh.mu.Lock()
	defer s.sh.mu.Unlock()
	return append([]RunFailure(nil), s.sh.failures...)
}

// ReportFailures prints a per-run failure summary through the suite's
// reporter and returns the failure count (0 = clean sweep). Commands call
// it last and turn a nonzero count into a nonzero exit. A suite running
// quiet (no Progress writer) still reports failures — to stderr; quiet
// suppresses progress, never errors.
func (s *Suite) ReportFailures() int {
	fails := s.Failures()
	if len(fails) == 0 {
		return 0
	}
	printf := s.Monitor().printf
	if s.Progress == nil {
		printf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	printf("%d run(s) FAILED and were quarantined:\n", len(fails))
	for _, f := range fails {
		printf("  %s %s: %s\n", f.App, f.Scheme, f.Err)
		if f.Artifact != "" {
			printf("    artifact: %s\n", f.Artifact)
		}
	}
	return len(fails)
}

// The public figure methods wrap the serial builders below in the
// plan/prefetch/build cycle of figure(): the simulations each figure
// needs run concurrently, the figure itself is assembled serially.

// Fig1 reproduces Figure 1 (see fig1).
func (s *Suite) Fig1() Figure { return s.figure(s.fig1) }

// Fig2 reproduces Figure 2 (see fig2).
func (s *Suite) Fig2() Figure { return s.figure(s.fig2) }

// Fig3 reproduces Figure 3 (see fig3).
func (s *Suite) Fig3() Figure { return s.figure(s.fig3) }

// Fig4 reproduces Figure 4 (see fig4).
func (s *Suite) Fig4() Figure { return s.figure(s.fig4) }

// Fig5 reproduces Figure 5 (see fig5).
func (s *Suite) Fig5() Figure { return s.figure(s.fig5) }

// Fig6 reproduces Figure 6 (see fig6).
func (s *Suite) Fig6() Figure { return s.figure(s.fig6) }

// Fig7 reproduces Figure 7 (see fig7).
func (s *Suite) Fig7() Figure { return s.figure(s.fig7) }

// Fig8 reproduces Figure 8 (see fig8).
func (s *Suite) Fig8() Figure { return s.figure(s.fig8) }

// Fig9 reproduces Figure 9 (see fig9).
func (s *Suite) Fig9() Figure { return s.figure(s.fig9) }

// FigTiny reproduces Figures 10-13 (see figTiny).
func (s *Suite) FigTiny(ratio float64) Figure {
	return s.figure(func() Figure { return s.figTiny(ratio) })
}

// FigLengthened reproduces Figures 14/15 (see figLengthened).
func (s *Suite) FigLengthened(ratio float64) Figure {
	return s.figure(func() Figure { return s.figLengthened(ratio) })
}

// Fig16 reproduces Figure 16 (see fig16).
func (s *Suite) Fig16() Figure { return s.figure(s.fig16) }

// Fig17 reproduces Figure 17 (see fig17).
func (s *Suite) Fig17() Figure { return s.figure(s.fig17) }

// Fig18 reproduces Figure 18 (see fig18).
func (s *Suite) Fig18() Figure { return s.figure(s.fig18) }

// Fig19 reproduces Figure 19 (see fig19).
func (s *Suite) Fig19() Figure { return s.figure(s.fig19) }

// Fig20 reproduces Figure 20 (see fig20).
func (s *Suite) Fig20() Figure { return s.figure(s.fig20) }

// Fig21 reproduces Figure 21 (see fig21).
func (s *Suite) Fig21() Figure { return s.figure(s.fig21) }

// Fig22 reproduces Figure 22 (see fig22).
func (s *Suite) Fig22() Figure { return s.figure(s.fig22) }

// FigHalved reproduces the §V-A robustness experiment (see figHalved).
func (s *Suite) FigHalved() Figure { return s.figure(s.figHalved) }

// AblFormat runs the sharer-encoding ablation (see ablFormat).
func (s *Suite) AblFormat() Figure { return s.figure(s.ablFormat) }

// AblGenLen runs the gNRU generation-length ablation (see ablGenLen).
func (s *Suite) AblGenLen() Figure { return s.figure(s.ablGenLen) }

// AblWindow runs the spill-window ablation (see ablWindow).
func (s *Suite) AblWindow() Figure { return s.figure(s.ablWindow) }

func (s *Suite) appNames() []string {
	var names []string
	for _, p := range Apps() {
		names = append(names, p.Name)
	}
	return names
}

// baseline returns the 2x sparse directory run for an app.
func (s *Suite) baseline(app Profile) Result { return s.run(app, SparseDirectory(2.0)) }

// normCycles returns execution time normalized to the 2x baseline.
func (s *Suite) normCycles(app Profile, scheme Scheme) float64 {
	base := s.baseline(app).Metrics.Cycles
	r := s.run(app, scheme)
	return float64(r.Metrics.Cycles) / float64(base)
}

// perApp fills a series by evaluating fn for every application.
func (s *Suite) perApp(name string, fn func(app Profile) float64) Series {
	se := Series{Name: name, Values: map[string]float64{}}
	for _, app := range Apps() {
		se.Values[app.Name] = fn(app)
	}
	return se
}

// Fig1 reproduces Figure 1: baseline sparse directories of 1/4x, 1/8x,
// 1/16x, normalized execution time vs 2x.
func (s *Suite) fig1() Figure {
	f := Figure{ID: "Fig1", Title: "Sparse directory sizing", Cols: s.appNames(), Unit: "x vs 2x"}
	for _, ratio := range []float64{1.0 / 4, 1.0 / 8, 1.0 / 16} {
		ratio := ratio
		f.Series = append(f.Series, s.perApp(ratioName(ratio), func(app Profile) float64 {
			return s.normCycles(app, SparseDirectory(ratio))
		}))
	}
	return f
}

// Fig2 reproduces Figure 2: distribution of the maximum sharer count per
// allocated LLC block (percent of allocated blocks per bin), measured on
// the 2x baseline.
func (s *Suite) fig2() Figure {
	f := Figure{ID: "Fig2", Title: "Max sharer count per allocated LLC block", Cols: s.appNames(), Unit: "%"}
	bins := []string{"[2,4]", "[5,8]", "[9,16]", "[17,128]"}
	for i, bin := range bins {
		i := i
		f.Series = append(f.Series, s.perApp(bin, func(app Profile) float64 {
			m := s.baseline(app).Metrics
			if m.AllocatedBlocks == 0 {
				return 0
			}
			return 100 * float64(m.SharerBins[i]) / float64(m.AllocatedBlocks)
		}))
	}
	return f
}

// Fig3 reproduces Figure 3: sparse directories tracking only shared
// blocks (1/16x..1/128x), plus the skew-associative variants the text
// reports, normalized to 2x.
func (s *Suite) fig3() Figure {
	f := Figure{ID: "Fig3", Title: "Shared-only directory limit study", Cols: s.appNames(), Unit: "x vs 2x"}
	for _, ratio := range []float64{1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128} {
		ratio := ratio
		f.Series = append(f.Series, s.perApp(ratioName(ratio), func(app Profile) float64 {
			return s.normCycles(app, SharedOnlyDirectory(ratio, false))
		}))
	}
	for _, ratio := range []float64{1.0 / 16, 1.0 / 32, 1.0 / 64} {
		ratio := ratio
		f.Series = append(f.Series, s.perApp("skew-"+ratioName(ratio), func(app Profile) float64 {
			return s.normCycles(app, SharedOnlyDirectory(ratio, true))
		}))
	}
	return f
}

// Fig4 reproduces Figure 4: in-LLC coherence tracking, tag-extended vs
// data-bits-borrowed, normalized to 2x.
func (s *Suite) fig4() Figure {
	f := Figure{ID: "Fig4", Title: "In-LLC coherence tracking", Cols: s.appNames(), Unit: "x vs 2x"}
	f.Series = append(f.Series, s.perApp("tag-extended", func(app Profile) float64 {
		return s.normCycles(app, InLLC(true))
	}))
	f.Series = append(f.Series, s.perApp("data-bits-borrowed", func(app Profile) float64 {
		return s.normCycles(app, InLLC(false))
	}))
	return f
}

// Fig5 reproduces Figure 5: interconnect traffic split into processor,
// writeback and coherence classes, normalized to the 2x baseline's total.
func (s *Suite) fig5() Figure {
	f := Figure{ID: "Fig5", Title: "Interconnect traffic breakdown", Cols: s.appNames(), Unit: "x of 2x total"}
	classes := []string{"processor", "writeback", "coherence"}
	order := []int{0, 1, 2}
	for _, cfgName := range []string{"sparse-2x", "inllc"} {
		cfgName := cfgName
		for _, ci := range order {
			ci := ci
			f.Series = append(f.Series, s.perApp(cfgName+":"+classes[ci], func(app Profile) float64 {
				base := s.baseline(app).Metrics
				var m Metrics
				if cfgName == "sparse-2x" {
					m = base
				} else {
					m = s.run(app, InLLC(false)).Metrics
				}
				tot := float64(base.TotalTraffic())
				if tot == 0 {
					return 0
				}
				return float64(m.TrafficBytes[ci]) / tot
			}))
		}
	}
	return f
}

// Fig6 reproduces Figure 6: percentage of LLC accesses whose critical
// path lengthens under in-LLC tracking, split into code and data.
func (s *Suite) fig6() Figure {
	f := Figure{ID: "Fig6", Title: "LLC accesses with lengthened critical path (in-LLC)", Cols: s.appNames(), Unit: "%"}
	f.Series = append(f.Series, s.perApp("data", func(app Profile) float64 {
		m := s.run(app, InLLC(false)).Metrics
		if m.LLCAccesses == 0 {
			return 0
		}
		return 100 * float64(m.LengthenedData) / float64(m.LLCAccesses)
	}))
	f.Series = append(f.Series, s.perApp("code", func(app Profile) float64 {
		m := s.run(app, InLLC(false)).Metrics
		if m.LLCAccesses == 0 {
			return 0
		}
		return 100 * float64(m.LengthenedCode) / float64(m.LLCAccesses)
	}))
	return f
}

// Fig7 reproduces Figure 7: percentage of allocated LLC blocks that
// source lengthened accesses under in-LLC tracking.
func (s *Suite) fig7() Figure {
	f := Figure{ID: "Fig7", Title: "Allocated LLC blocks with lengthened accesses (in-LLC)", Cols: s.appNames(), Unit: "%"}
	f.Series = append(f.Series, s.perApp("blocks", func(app Profile) float64 {
		return 100 * s.run(app, InLLC(false)).Metrics.LengthenedBlockFrac()
	}))
	return f
}

// Fig8 reproduces Figure 8: distribution of allocated LLC blocks with
// non-zero STRA ratio over categories C1..C7.
func (s *Suite) fig8() Figure {
	return s.straDistribution("Fig8", "Block distribution over STRA categories", "stra.blockCat")
}

// Fig9 reproduces Figure 9: distribution of lengthened LLC accesses over
// the accessed block's STRA category.
func (s *Suite) fig9() Figure {
	return s.straDistribution("Fig9", "Lengthened-access distribution over STRA categories", "stra.accessCat")
}

func (s *Suite) straDistribution(id, title, keyPrefix string) Figure {
	f := Figure{ID: id, Title: title, Cols: s.appNames(), Unit: "%", NoAverage: false}
	for cat := 1; cat <= 7; cat++ {
		cat := cat
		f.Series = append(f.Series, s.perApp(fmt.Sprintf("C%d", cat), func(app Profile) float64 {
			m := s.run(app, InLLC(false)).Metrics
			var total, mine uint64
			for c := 1; c <= 7; c++ {
				v := m.Tracker[fmt.Sprintf("%s%d", keyPrefix, c)]
				total += v
				if c == cat {
					mine = v
				}
			}
			if total == 0 {
				return 0
			}
			return 100 * float64(mine) / float64(total)
		}))
	}
	return f
}

// TinySizes are the four tiny-directory sizes of §V.
var TinySizes = []float64{1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256}

// FigTiny reproduces Figures 10-13: tiny directory at the given size with
// the DSTRA, DSTRA+gNRU, and DSTRA+gNRU+DynSpill policies, normalized to
// the 2x sparse baseline.
func (s *Suite) figTiny(ratio float64) Figure {
	id := map[float64]string{1.0 / 32: "Fig10", 1.0 / 64: "Fig11", 1.0 / 128: "Fig12", 1.0 / 256: "Fig13"}[ratio]
	if id == "" {
		id = "FigTiny-" + ratioName(ratio)
	}
	f := Figure{ID: id, Title: "Tiny directory " + ratioName(ratio), Cols: s.appNames(), Unit: "x vs 2x"}
	for _, pol := range tinyPolicies(ratio) {
		pol := pol
		f.Series = append(f.Series, s.perApp(pol.name, func(app Profile) float64 {
			return s.normCycles(app, pol.scheme)
		}))
	}
	return f
}

type tinyPolicy struct {
	name   string
	scheme Scheme
}

func tinyPolicies(ratio float64) []tinyPolicy {
	return []tinyPolicy{
		{"DSTRA", TinyDirectory(ratio, false, false)},
		{"DSTRA+gNRU", TinyDirectory(ratio, true, false)},
		{"DSTRA+gNRU+DynSpill", TinyDirectory(ratio, true, true)},
	}
}

// FigLengthened reproduces Figures 14/15: percentage of LLC accesses with
// lengthened critical paths under the tiny directory of the given size.
func (s *Suite) figLengthened(ratio float64) Figure {
	id := map[float64]string{1.0 / 32: "Fig14", 1.0 / 256: "Fig15"}[ratio]
	if id == "" {
		id = "FigLen-" + ratioName(ratio)
	}
	f := Figure{ID: id, Title: "Lengthened accesses, tiny " + ratioName(ratio), Cols: s.appNames(), Unit: "%"}
	for _, pol := range tinyPolicies(ratio) {
		pol := pol
		f.Series = append(f.Series, s.perApp(pol.name, func(app Profile) float64 {
			return 100 * s.run(app, pol.scheme).Metrics.LengthenedFrac()
		}))
	}
	return f
}

// Fig16 reproduces Figure 16: tiny-directory hits under DSTRA+gNRU
// normalized to DSTRA, for the four sizes.
func (s *Suite) fig16() Figure {
	return s.gnruRatio("Fig16", "Tiny-directory hits, gNRU vs DSTRA", "tiny.hits")
}

// Fig17 reproduces Figure 17: tiny-directory allocations under
// DSTRA+gNRU normalized to DSTRA.
func (s *Suite) fig17() Figure {
	return s.gnruRatio("Fig17", "Tiny-directory allocations, gNRU vs DSTRA", "tiny.allocs")
}

func (s *Suite) gnruRatio(id, title, key string) Figure {
	f := Figure{ID: id, Title: title, Cols: s.appNames(), Unit: "x"}
	for _, ratio := range TinySizes {
		ratio := ratio
		f.Series = append(f.Series, s.perApp(ratioName(ratio), func(app Profile) float64 {
			a := s.run(app, TinyDirectory(ratio, false, false)).Metrics.Tracker[key]
			b := s.run(app, TinyDirectory(ratio, true, false)).Metrics.Tracker[key]
			if a == 0 {
				if b == 0 {
					return 1
				}
				return float64(b)
			}
			return float64(b) / float64(a)
		}))
	}
	return f
}

// Fig18 reproduces Figure 18: hits per allocation with DSTRA+gNRU.
func (s *Suite) fig18() Figure {
	f := Figure{ID: "Fig18", Title: "Tiny-directory hits per allocation (gNRU)", Cols: s.appNames(), Unit: "hits/alloc"}
	for _, ratio := range TinySizes {
		ratio := ratio
		f.Series = append(f.Series, s.perApp(ratioName(ratio), func(app Profile) float64 {
			m := s.run(app, TinyDirectory(ratio, true, false)).Metrics
			a := m.Tracker["tiny.allocs"]
			if a == 0 {
				return 0
			}
			return float64(m.Tracker["tiny.hits"]) / float64(a)
		}))
	}
	return f
}

// Fig19 reproduces Figure 19: percentage of LLC accesses whose critical
// path is saved by spilled entries (DSTRA+gNRU+DynSpill).
func (s *Suite) fig19() Figure {
	f := Figure{ID: "Fig19", Title: "LLC accesses saved by spilled entries", Cols: s.appNames(), Unit: "%"}
	for _, ratio := range TinySizes {
		ratio := ratio
		f.Series = append(f.Series, s.perApp(ratioName(ratio), func(app Profile) float64 {
			return 100 * s.run(app, TinyDirectory(ratio, true, true)).Metrics.SpillAvoidedFrac()
		}))
	}
	return f
}

// Fig20 reproduces Figure 20: LLC miss-rate increase due to spilling
// (percentage points vs the 2x baseline).
func (s *Suite) fig20() Figure {
	f := Figure{ID: "Fig20", Title: "LLC miss-rate increase from spilling", Cols: s.appNames(), Unit: "pp"}
	for _, ratio := range TinySizes {
		ratio := ratio
		f.Series = append(f.Series, s.perApp(ratioName(ratio), func(app Profile) float64 {
			base := s.baseline(app).Metrics.LLCMissRate()
			m := s.run(app, TinyDirectory(ratio, true, true)).Metrics.LLCMissRate()
			return 100 * (m - base)
		}))
	}
	return f
}

// Fig21 reproduces Figure 21: LLC+directory energy (dynamic, leakage,
// total) and execution cycles for baseline sparse directories from 2x
// down to 1/16x plus the tiny 1/128x, all normalized to the tiny 1/256x
// configuration with DSTRA+gNRU+DynSpill, averaged over the applications.
func (s *Suite) fig21() Figure {
	type point struct {
		name   string
		scheme Scheme
	}
	points := []point{
		{"2x", SparseDirectory(2)},
		{"1x", SparseDirectory(1)},
		{"1/2x", SparseDirectory(0.5)},
		{"1/4x", SparseDirectory(0.25)},
		{"1/8x", SparseDirectory(1.0 / 8)},
		{"1/16x", SparseDirectory(1.0 / 16)},
		{"tiny-1/128x", TinyDirectory(1.0/128, true, true)},
		{"tiny-1/256x", TinyDirectory(1.0/256, true, true)},
	}
	var cols []string
	for _, p := range points {
		cols = append(cols, p.name)
	}
	f := Figure{ID: "Fig21", Title: "Energy and cycles vs tiny 1/256x", Cols: cols, Unit: "x", NoAverage: true}

	type agg struct{ dyn, leak, tot, cycles float64 }
	sums := map[string]*agg{}
	apps := Apps()
	for _, p := range points {
		a := &agg{}
		sums[p.name] = a
		for _, app := range apps {
			r := s.run(app, p.scheme)
			bd := s.energyOf(r, p.scheme)
			a.dyn += bd.DynamicJ
			a.leak += bd.LeakageJ
			a.tot += bd.TotalJ()
			a.cycles += float64(r.Metrics.Cycles)
		}
	}
	ref := sums["tiny-1/256x"]
	mk := func(name string, get func(*agg) float64) Series {
		se := Series{Name: name, Values: map[string]float64{}}
		for _, p := range points {
			se.Values[p.name] = get(sums[p.name]) / get(ref)
		}
		return se
	}
	f.Series = append(f.Series,
		mk("dynamic-energy", func(a *agg) float64 { return a.dyn }),
		mk("leakage-energy", func(a *agg) float64 { return a.leak }),
		mk("total-energy", func(a *agg) float64 { return a.tot }),
		mk("cycles", func(a *agg) float64 { return a.cycles }),
	)
	return f
}

// energyOf evaluates the Fig. 21 energy model for one run.
func (s *Suite) energyOf(r Result, scheme Scheme) energy.Breakdown {
	m := r.Metrics
	cores := r.Cores
	cfg := s.Scale.machine()
	llcBytes := cfg.LLCSets * cfg.LLCWays * 64 * cores
	tagBytes := llcBytes / 16
	dirEntries := 0
	bitsPerEntry := cores + 27 + 32 // sharer vector + state/policy + tag
	switch scheme.Kind {
	case KindSparse, KindSharedOnly, KindSharedOnlySkew, KindMgD, KindStash:
		dirEntries = cfg.DirEntriesPerSlice(scheme.Ratio) * cores
	case KindTiny:
		dirEntries = cfg.DirEntriesPerSlice(scheme.Ratio) * cores
		bitsPerEntry = cores + 27 + 32 // 155-bit entry at 128 cores
	}
	dirBytes := energy.DirectoryBytes(maxInt(dirEntries, 1), bitsPerEntry)
	model := energy.Model{
		LLCData: energy.Structure{Bytes: llcBytes, Ways: cfg.LLCWays},
		LLCTags: energy.Structure{Bytes: tagBytes, Ways: cfg.LLCWays},
		Dir:     energy.Structure{Bytes: dirBytes, Ways: 8},
	}
	act := energy.Activity{
		LLCTagReads:   m.LLCTagReads,
		LLCDataReads:  m.LLCDataReads,
		LLCDataWrites: m.LLCDataWrites + m.LLCStateWrites,
		DirReads:      m.LLCAccesses,
		DirWrites:     m.Tracker["dir.allocs"] + m.Tracker["tiny.allocs"] + m.PrivateMisses/4,
		Cycles:        m.Cycles,
	}
	return model.Energy(act)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Fig22 reproduces Figure 22: MgD at 1/8x..1/64x and Stash at 1/32x,
// normalized to the 2x sparse baseline.
func (s *Suite) fig22() Figure {
	f := Figure{ID: "Fig22", Title: "MgD and Stash comparison", Cols: s.appNames(), Unit: "x vs 2x"}
	for _, ratio := range []float64{1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64} {
		ratio := ratio
		f.Series = append(f.Series, s.perApp("MgD-"+ratioName(ratio), func(app Profile) float64 {
			return s.normCycles(app, MgD(ratio))
		}))
	}
	f.Series = append(f.Series, s.perApp("Stash-1/32x", func(app Profile) float64 {
		return s.normCycles(app, Stash(1.0/32))
	}))
	return f
}

// FigHalved reproduces the §V-A robustness experiment: the whole cache
// hierarchy halved, tiny 1/128x policies vs the 2x baseline.
func (s *Suite) figHalved() Figure {
	half := s.derived(Scale{
		Name:           s.Scale.Name + "-halved",
		Cores:          s.Scale.Cores,
		Refs:           s.Scale.Refs,
		HalveHierarchy: true,
	})
	f := Figure{ID: "Halved", Title: "Halved hierarchy, tiny 1/128x", Cols: s.appNames(), Unit: "x vs 2x"}
	f.Series = append(f.Series, half.perApp("DSTRA+gNRU", func(app Profile) float64 {
		return half.normCycles(app, TinyDirectory(1.0/128, true, false))
	}))
	f.Series = append(f.Series, half.perApp("DSTRA+gNRU+DynSpill", func(app Profile) float64 {
		return half.normCycles(app, TinyDirectory(1.0/128, true, true))
	}))
	return f
}

// perFamily fills a series by evaluating fn for every workload-family
// profile (the perApp analogue over FamilyApps).
func (s *Suite) perFamily(name string, fn func(app Profile) float64) Series {
	se := Series{Name: name, Values: map[string]float64{}}
	for _, app := range FamilyApps() {
		se.Values[app.Name] = fn(app)
	}
	return se
}

// FigFamilies compares the tracking schemes on the five specialized
// workload families — the sharing extremes (falsely-shared lines, hot
// home banks, producer-consumer migration, work stealing, multiprogram
// rate mode) that the 17 mixed applications under-stress.
func (s *Suite) FigFamilies() Figure { return s.figure(s.figFamilies) }

func (s *Suite) figFamilies() Figure {
	var cols []string
	for _, p := range FamilyApps() {
		cols = append(cols, p.Name)
	}
	f := Figure{ID: "Families", Title: "Workload families across schemes", Cols: cols, Unit: "x vs 2x"}
	schemes := []Scheme{
		SparseDirectory(1.0 / 8),
		InLLC(false),
		TinyDirectory(1.0/64, true, true),
		Stash(1.0 / 32),
	}
	for _, sc := range schemes {
		sc := sc
		f.Series = append(f.Series, s.perFamily(sc.String(), func(app Profile) float64 {
			return s.normCycles(app, sc)
		}))
	}
	return f
}

// AllFigures runs the complete experiment suite in paper order.
func (s *Suite) AllFigures() []Figure {
	figs := []Figure{
		s.Fig1(), s.Fig2(), s.Fig3(), s.Fig4(), s.Fig5(), s.Fig6(),
		s.Fig7(), s.Fig8(), s.Fig9(),
	}
	for _, r := range TinySizes {
		figs = append(figs, s.FigTiny(r))
	}
	figs = append(figs, s.FigLengthened(1.0/32), s.FigLengthened(1.0/256))
	figs = append(figs, s.Fig16(), s.Fig17(), s.Fig18(), s.Fig19(), s.Fig20(), s.Fig21(), s.Fig22(), s.FigHalved())
	figs = append(figs, s.FigFamilies())
	return figs
}

// FigureByID runs a single figure by identifier ("1".."22", "halved",
// "families", or an ablation name).
func (s *Suite) FigureByID(id string) (Figure, error) {
	switch strings.ToLower(strings.TrimPrefix(strings.ToLower(id), "fig")) {
	case "1":
		return s.Fig1(), nil
	case "2":
		return s.Fig2(), nil
	case "3":
		return s.Fig3(), nil
	case "4":
		return s.Fig4(), nil
	case "5":
		return s.Fig5(), nil
	case "6":
		return s.Fig6(), nil
	case "7":
		return s.Fig7(), nil
	case "8":
		return s.Fig8(), nil
	case "9":
		return s.Fig9(), nil
	case "10":
		return s.FigTiny(1.0 / 32), nil
	case "11":
		return s.FigTiny(1.0 / 64), nil
	case "12":
		return s.FigTiny(1.0 / 128), nil
	case "13":
		return s.FigTiny(1.0 / 256), nil
	case "14":
		return s.FigLengthened(1.0 / 32), nil
	case "15":
		return s.FigLengthened(1.0 / 256), nil
	case "16":
		return s.Fig16(), nil
	case "17":
		return s.Fig17(), nil
	case "18":
		return s.Fig18(), nil
	case "19":
		return s.Fig19(), nil
	case "20":
		return s.Fig20(), nil
	case "21":
		return s.Fig21(), nil
	case "22":
		return s.Fig22(), nil
	case "halved":
		return s.FigHalved(), nil
	case "families":
		return s.FigFamilies(), nil
	case "ablformat", "format":
		return s.AblFormat(), nil
	case "ablgenlen", "genlen":
		return s.AblGenLen(), nil
	case "ablwindow", "window":
		return s.AblWindow(), nil
	}
	return Figure{}, fmt.Errorf("unknown figure %q", id)
}

// SortedTrackerKeys is a small helper for stable metric dumps.
func SortedTrackerKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteCSV emits the figure as CSV: one row per series, one column per
// application (plus Average unless suppressed), for plotting pipelines.
func (f Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"figure", "series", "unit"}, f.Cols...)
	if !f.NoAverage {
		header = append(header, "Average")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range f.Series {
		row := []string{f.ID, s.Name, f.Unit}
		for _, c := range f.Cols {
			row = append(row, strconv.FormatFloat(s.Values[c], 'f', 6, 64))
		}
		if !f.NoAverage {
			row = append(row, strconv.FormatFloat(s.Avg(f.Cols), 'f', 6, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
