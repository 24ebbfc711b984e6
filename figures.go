package tinydir

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
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

func (s *Suite) run(app Profile, scheme Scheme) Result {
	o := Options{App: app, Scheme: scheme, Scale: s.Scale}
	key := runKey(o)
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
			sh.plan = append(sh.plan, plannedRun{key: key, opts: o})
		}
		sh.mu.Unlock()
		return Result{App: app.Name, Scheme: scheme.String()}
	}
	sh.mu.Unlock()
	return s.cacheRun(plannedRun{key: key, opts: o})
}

// cacheRun runs p through executeRun and caches the result under its key.
func (s *Suite) cacheRun(p plannedRun) Result {
	r := s.executeRun(p.opts)
	s.sh.mu.Lock()
	s.sh.cache[p.key] = r
	s.sh.mu.Unlock()
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

// prefetch executes the planned runs on the bounded worker pool. Once
// the suite is cancelled the remaining entries skip their simulations
// (executeRun returns at once).
func (s *Suite) prefetch(plan []plannedRun) {
	parallelFor(len(plan), s.Workers, func(i int) { s.cacheRun(plan[i]) })
}

// Runs returns the number of simulations actually executed so far.
// Results served from a Store under Resume are not counted — they cost no
// simulation — and neither are quarantined failures.
func (s *Suite) Runs() int {
	st := s.Monitor().Snapshot()
	return st.Done - st.Served - st.Failed
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

// figureRow is one figure of the reproduction: its -fig id (FigureByID
// also accepts the id behind a "fig" prefix, in any case), further
// aliases, whether -fig all leaves it out, and its serial builder.
type figureRow struct {
	id       string
	aliases  []string
	ablation bool // -fig all skips it
	build    func(s *Suite) Figure
}

// figureTable lists the paper's Figs. 1-22, the halved-hierarchy and
// workload-family tables, then the ablation studies, in output order. It
// is the one place figure ids live: FigureByID looks rows up here and
// cmd/experiments takes its -fig all list and -fig help from FigureIDs.
var figureTable = []figureRow{
	// Fig. 1: baseline sparse directories of 1/4x..1/16x.
	{id: "1", build: func(s *Suite) Figure {
		return appFigure("Fig1", "Sparse directory sizing", xVs2x,
			s.cyclesVs(Apps(), baseline, ratioSeries("", SparseDirectory, 1.0/4, 1.0/8, 1.0/16)))
	}},
	{id: "2", build: (*Suite).fig2},
	// Fig. 3: sparse directories tracking only shared blocks, plus the
	// skew-associative variants the text reports.
	{id: "3", build: func(s *Suite) Figure {
		return appFigure("Fig3", "Shared-only directory limit study", xVs2x,
			s.cyclesVs(Apps(), baseline, append(
				ratioSeries("", func(r float64) Scheme { return SharedOnlyDirectory(r, false) }, 1.0/16, 1.0/32, 1.0/64, 1.0/128),
				ratioSeries("skew-", func(r float64) Scheme { return SharedOnlyDirectory(r, true) }, 1.0/16, 1.0/32, 1.0/64)...)))
	}},
	// Fig. 4: in-LLC coherence tracking, tag-extended vs data bits borrowed.
	{id: "4", build: func(s *Suite) Figure {
		return appFigure("Fig4", "In-LLC coherence tracking", xVs2x, s.cyclesVs(Apps(), baseline,
			[]namedScheme{{"tag-extended", InLLC(true)}, {"data-bits-borrowed", InLLC(false)}}))
	}},
	{id: "5", build: (*Suite).fig5},
	// Fig. 6: LLC accesses whose critical path in-LLC tracking lengthens,
	// split into data and code.
	{id: "6", build: func(s *Suite) Figure {
		return appFigure("Fig6", "LLC accesses with lengthened critical path (in-LLC)", "%",
			s.percentOf(func(m Metrics) float64 { return perAccess(m.LengthenedData, m) }, namedScheme{"data", InLLC(false)}),
			s.percentOf(func(m Metrics) float64 { return perAccess(m.LengthenedCode, m) }, namedScheme{"code", InLLC(false)}))
	}},
	// Fig. 7: allocated LLC blocks that source lengthened accesses.
	{id: "7", build: func(s *Suite) Figure {
		return appFigure("Fig7", "Allocated LLC blocks with lengthened accesses (in-LLC)", "%",
			s.percentOf(Metrics.LengthenedBlockFrac, namedScheme{"blocks", InLLC(false)}))
	}},
	// Figs. 8/9: allocated blocks with a non-zero STRA ratio, and the
	// lengthened accesses, over STRA categories C1..C7.
	{id: "8", build: func(s *Suite) Figure {
		return s.straDistribution("Fig8", "Block distribution over STRA categories", "stra.blockCat")
	}},
	{id: "9", build: func(s *Suite) Figure {
		return s.straDistribution("Fig9", "Lengthened-access distribution over STRA categories", "stra.accessCat")
	}},
	// Figs. 10-13: the tiny directory's three policy stacks at each size.
	{id: "10", build: func(s *Suite) Figure { return s.tinyCycles("Fig10", 1.0/32) }},
	{id: "11", build: func(s *Suite) Figure { return s.tinyCycles("Fig11", 1.0/64) }},
	{id: "12", build: func(s *Suite) Figure { return s.tinyCycles("Fig12", 1.0/128) }},
	{id: "13", build: func(s *Suite) Figure { return s.tinyCycles("Fig13", 1.0/256) }},
	// Figs. 14/15: LLC accesses with lengthened critical paths under them.
	{id: "14", build: func(s *Suite) Figure { return s.tinyLengthened("Fig14", 1.0/32) }},
	{id: "15", build: func(s *Suite) Figure { return s.tinyLengthened("Fig15", 1.0/256) }},
	// Figs. 16/17: tiny-directory hits and allocations under DSTRA+gNRU,
	// relative to DSTRA alone.
	{id: "16", build: func(s *Suite) Figure {
		return appFigure("Fig16", "Tiny-directory hits, gNRU vs DSTRA", "x",
			s.trackerRatio("tiny.hits", withoutGNRU, ratioSeries("", tinyGNRU, TinySizes...)))
	}},
	{id: "17", build: func(s *Suite) Figure {
		return appFigure("Fig17", "Tiny-directory allocations, gNRU vs DSTRA", "x",
			s.trackerRatio("tiny.allocs", withoutGNRU, ratioSeries("", tinyGNRU, TinySizes...)))
	}},
	{id: "18", build: (*Suite).fig18},
	// Fig. 19: LLC accesses whose critical path spilled entries save.
	{id: "19", build: func(s *Suite) Figure {
		return appFigure("Fig19", "LLC accesses saved by spilled entries", "%",
			s.percentOf(Metrics.SpillAvoidedFrac, ratioSeries("", tinySpill, TinySizes...)...))
	}},
	{id: "20", build: (*Suite).fig20},
	{id: "21", build: (*Suite).fig21},
	// Fig. 22: MgD at 1/8x..1/64x and Stash at 1/32x.
	{id: "22", build: func(s *Suite) Figure {
		return appFigure("Fig22", "MgD and Stash comparison", xVs2x, s.cyclesVs(Apps(), baseline, append(
			ratioSeries("MgD-", MgD, 1.0/8, 1.0/16, 1.0/32, 1.0/64),
			namedScheme{"Stash-1/32x", Stash(1.0 / 32)})))
	}},
	// §V-A robustness: the whole cache hierarchy halved, tiny 1/128x with
	// gNRU and with gNRU+DynSpill against the halved 2x baseline.
	{id: "halved", build: func(s *Suite) Figure {
		half := s.derived(Scale{Name: s.Scale.Name + "-halved", Cores: s.Scale.Cores, Refs: s.Scale.Refs, HalveHierarchy: true})
		return appFigure("Halved", "Halved hierarchy, tiny 1/128x", xVs2x,
			half.cyclesVs(Apps(), baseline, tinyPolicies(1.0 / 128)[1:]))
	}},
	// The five workload families — the sharing extremes (falsely-shared
	// lines, hot home banks, producer-consumer migration, work stealing,
	// multiprogram rate mode) that the 17 mixed applications under-stress.
	{id: "families", build: func(s *Suite) Figure {
		var schemes []namedScheme
		for _, sc := range []Scheme{SparseDirectory(1.0 / 8), InLLC(false), TinyDirectory(1.0/64, true, true), Stash(1.0 / 32)} {
			schemes = append(schemes, namedScheme{sc.String(), sc})
		}
		fams := FamilyApps()
		return Figure{ID: "Families", Title: "Workload families across schemes", Cols: profileNames(fams),
			Unit: xVs2x, Series: s.cyclesVs(fams, baseline, schemes)}
	}},

	// Ablations of the design choices DESIGN.md calls out. Entry-format
	// composability (§I-A): narrower sharer encodings on a 1x sparse
	// directory shrink each entry but inflate invalidations.
	{id: "format", aliases: []string{"ablformat"}, ablation: true, build: (*Suite).ablFormat},
	// The gNRU generation length (§IV-A2: "the length of a generation
	// needs to be chosen carefully"): fixed lengths in 4K-cycle units
	// against the adaptive estimate, tiny-directory hits at 1/128x.
	{id: "genlen", aliases: []string{"ablgenlen"}, ablation: true, build: func(s *Suite) Figure {
		adaptive := TinyDirectory(1.0/128, true, false)
		var fixed []namedScheme
		for _, gl := range []uint64{1, 16, 256, 1024} {
			sc := adaptive
			sc.FixedGenLen = gl
			fixed = append(fixed, namedScheme{fmt.Sprintf("fixed-%d", gl), sc})
		}
		return appFigure("AblGenLen", "gNRU generation length, tiny 1/128x", "hits vs adaptive",
			s.trackerRatio("tiny.hits", func(Scheme) Scheme { return adaptive }, fixed))
	}},
	// The dynamic-spill observation window (§IV-B2's 8K accesses) at
	// 1/256x: short windows adapt the spill threshold noisily, long ones
	// adapt late.
	{id: "window", aliases: []string{"ablwindow"}, ablation: true, build: func(s *Suite) Figure {
		ref := TinyDirectory(1.0/256, true, true)
		var windows []namedScheme
		for _, w := range []uint64{256, 1024, 32768} {
			sc := ref
			sc.SpillWindow = w
			windows = append(windows, namedScheme{fmt.Sprintf("window-%d", w), sc})
		}
		// The reference is the run Figs. 13 and 15 share; its window is
		// whatever normalizeOptions gives this scale.
		refWindow := normalizeOptions(Options{Scheme: ref, Scale: s.Scale}).Scheme.SpillWindow
		return appFigure("AblWindow", "Spill observation window, tiny 1/256x", fmt.Sprintf("x vs %d window", refWindow),
			s.cyclesVs(Apps(), ref, windows))
	}},
}

// lookupFigure finds a table row by -fig id or alias.
func lookupFigure(id string) (figureRow, bool) {
	key := strings.TrimPrefix(strings.ToLower(id), "fig")
	for _, row := range figureTable {
		if row.id == key || slices.Contains(row.aliases, key) {
			return row, true
		}
	}
	return figureRow{}, false
}

// FigureByID builds one figure of the table by id ("1".."22", "halved",
// "families", or an ablation name; "Fig10" and "AblFormat" work too),
// prefetching the runs it needs in parallel: the simulations run
// concurrently, the figure itself is assembled serially.
func (s *Suite) FigureByID(id string) (Figure, error) {
	row, ok := lookupFigure(id)
	if !ok {
		return Figure{}, fmt.Errorf("unknown figure %q", id)
	}
	return s.figure(func() Figure { return row.build(s) }), nil
}

// FigureIDs returns the table's -fig ids in output order: the figures
// -fig all builds, followed, when ablations is set, by the ablations.
func FigureIDs(ablations bool) []string {
	var ids []string
	for _, row := range figureTable {
		if ablations || !row.ablation {
			ids = append(ids, row.id)
		}
	}
	return ids
}

const xVs2x = "x vs 2x"

// baseline is the paper's reference: the 2x sparse directory.
var baseline = SparseDirectory(2)

// TinySizes are the four tiny-directory sizes of §V.
var TinySizes = []float64{1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256}

// namedScheme is one series of a figure: its name and the scheme it runs.
type namedScheme struct {
	name   string
	scheme Scheme
}

// ratioSeries names mk(r) prefix+"1/16x" and so on for each size r.
func ratioSeries(prefix string, mk func(float64) Scheme, ratios ...float64) []namedScheme {
	out := make([]namedScheme, len(ratios))
	for i, r := range ratios {
		out[i] = namedScheme{prefix + ratioName(r), mk(r)}
	}
	return out
}

// tinyPolicies are the tiny directory's three policy stacks at one size.
func tinyPolicies(ratio float64) []namedScheme {
	return []namedScheme{
		{"DSTRA", TinyDirectory(ratio, false, false)},
		{"DSTRA+gNRU", TinyDirectory(ratio, true, false)},
		{"DSTRA+gNRU+DynSpill", TinyDirectory(ratio, true, true)},
	}
}

func tinyGNRU(r float64) Scheme  { return TinyDirectory(r, true, false) }
func tinySpill(r float64) Scheme { return TinyDirectory(r, true, true) }

func withoutGNRU(sc Scheme) Scheme {
	sc.GNRU = false
	return sc
}

func profileNames(apps []Profile) []string {
	names := make([]string, len(apps))
	for i, p := range apps {
		names[i] = p.Name
	}
	return names
}

// appFigure assembles a figure over the 17 applications from groups of
// series, in order.
func appFigure(id, title, unit string, groups ...[]Series) Figure {
	f := Figure{ID: id, Title: title, Cols: profileNames(Apps()), Unit: unit}
	for _, g := range groups {
		f.Series = append(f.Series, g...)
	}
	return f
}

// perProfile fills a series by evaluating fn for every profile in apps.
func perProfile(apps []Profile, name string, fn func(app Profile) float64) Series {
	se := Series{Name: name, Values: map[string]float64{}}
	for _, app := range apps {
		se.Values[app.Name] = fn(app)
	}
	return se
}

// cyclesVs builds one series per scheme: each profile's execution time
// normalized to its run under ref.
func (s *Suite) cyclesVs(apps []Profile, ref Scheme, schemes []namedScheme) []Series {
	var out []Series
	for _, ns := range schemes {
		out = append(out, perProfile(apps, ns.name, func(app Profile) float64 {
			base := s.run(app, ref).Metrics.Cycles
			return float64(s.run(app, ns.scheme).Metrics.Cycles) / float64(base)
		}))
	}
	return out
}

// percentOf builds one series per scheme: a run metric of each
// application, as a percentage.
func (s *Suite) percentOf(frac func(Metrics) float64, schemes ...namedScheme) []Series {
	var out []Series
	for _, ns := range schemes {
		out = append(out, perProfile(Apps(), ns.name, func(app Profile) float64 {
			return 100 * frac(s.run(app, ns.scheme).Metrics)
		}))
	}
	return out
}

// perAccess is n as a fraction of the run's LLC accesses.
func perAccess(n uint64, m Metrics) float64 {
	if m.LLCAccesses == 0 {
		return 0
	}
	return float64(n) / float64(m.LLCAccesses)
}

// trackerRatio builds one series per scheme: each application's tracker
// counter key under the scheme over the same counter under ref(scheme).
// A zero reference counter yields 1 when both are zero and the raw
// count otherwise.
func (s *Suite) trackerRatio(key string, ref func(Scheme) Scheme, schemes []namedScheme) []Series {
	var out []Series
	for _, ns := range schemes {
		out = append(out, perProfile(Apps(), ns.name, func(app Profile) float64 {
			a := s.run(app, ref(ns.scheme)).Metrics.Tracker[key]
			b := s.run(app, ns.scheme).Metrics.Tracker[key]
			if a == 0 {
				if b == 0 {
					return 1
				}
				return float64(b)
			}
			return float64(b) / float64(a)
		}))
	}
	return out
}

// tinyCycles is one of Figs. 10-13: the tiny directory's policy stacks at
// one size, normalized to the 2x baseline.
func (s *Suite) tinyCycles(id string, ratio float64) Figure {
	return appFigure(id, "Tiny directory "+ratioName(ratio), xVs2x, s.cyclesVs(Apps(), baseline, tinyPolicies(ratio)))
}

// tinyLengthened is Fig. 14 or 15: the percentage of LLC accesses with
// lengthened critical paths under the tiny directory of one size.
func (s *Suite) tinyLengthened(id string, ratio float64) Figure {
	return appFigure(id, "Lengthened accesses, tiny "+ratioName(ratio), "%",
		s.percentOf(Metrics.LengthenedFrac, tinyPolicies(ratio)...))
}

// fig2 reproduces Figure 2: distribution of the maximum sharer count per
// allocated LLC block (percent of allocated blocks per bin), measured on
// the 2x baseline.
func (s *Suite) fig2() Figure {
	f := appFigure("Fig2", "Max sharer count per allocated LLC block", "%")
	for i, bin := range []string{"[2,4]", "[5,8]", "[9,16]", "[17,128]"} {
		f.Series = append(f.Series, perProfile(Apps(), bin, func(app Profile) float64 {
			m := s.run(app, baseline).Metrics
			if m.AllocatedBlocks == 0 {
				return 0
			}
			return 100 * float64(m.SharerBins[i]) / float64(m.AllocatedBlocks)
		}))
	}
	return f
}

// fig5 reproduces Figure 5: interconnect traffic split into processor,
// writeback and coherence classes, normalized to the 2x baseline's total.
func (s *Suite) fig5() Figure {
	f := appFigure("Fig5", "Interconnect traffic breakdown", "x of 2x total")
	for _, cfg := range []namedScheme{{"sparse-2x", baseline}, {"inllc", InLLC(false)}} {
		for ci, class := range []string{"processor", "writeback", "coherence"} {
			f.Series = append(f.Series, perProfile(Apps(), cfg.name+":"+class, func(app Profile) float64 {
				base := s.run(app, baseline).Metrics
				m := s.run(app, cfg.scheme).Metrics
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

// straDistribution is Fig. 8 or 9: the percentage of the in-LLC run's
// keyPrefix1..7 counters in each STRA category.
func (s *Suite) straDistribution(id, title, keyPrefix string) Figure {
	f := appFigure(id, title, "%")
	for cat := 1; cat <= 7; cat++ {
		f.Series = append(f.Series, perProfile(Apps(), fmt.Sprintf("C%d", cat), func(app Profile) float64 {
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

// fig18 reproduces Figure 18: hits per allocation with DSTRA+gNRU.
func (s *Suite) fig18() Figure {
	f := appFigure("Fig18", "Tiny-directory hits per allocation (gNRU)", "hits/alloc")
	for _, ns := range ratioSeries("", tinyGNRU, TinySizes...) {
		f.Series = append(f.Series, perProfile(Apps(), ns.name, func(app Profile) float64 {
			m := s.run(app, ns.scheme).Metrics
			a := m.Tracker["tiny.allocs"]
			if a == 0 {
				return 0
			}
			return float64(m.Tracker["tiny.hits"]) / float64(a)
		}))
	}
	return f
}

// fig20 reproduces Figure 20: LLC miss-rate increase due to spilling
// (percentage points vs the 2x baseline).
func (s *Suite) fig20() Figure {
	f := appFigure("Fig20", "LLC miss-rate increase from spilling", "pp")
	for _, ns := range ratioSeries("", tinySpill, TinySizes...) {
		f.Series = append(f.Series, perProfile(Apps(), ns.name, func(app Profile) float64 {
			base := s.run(app, baseline).Metrics.LLCMissRate()
			m := s.run(app, ns.scheme).Metrics.LLCMissRate()
			return 100 * (m - base)
		}))
	}
	return f
}

// fig21 reproduces Figure 21: LLC+directory energy (dynamic, leakage,
// total) and execution cycles for baseline sparse directories from 2x
// down to 1/16x plus the tiny 1/128x, all normalized to the tiny 1/256x
// configuration with DSTRA+gNRU+DynSpill, averaged over the applications.
func (s *Suite) fig21() Figure {
	points := []namedScheme{
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
	dirEntries := 0 // the in-LLC schemes have no directory
	if scheme.Kind != KindInLLC && scheme.Kind != KindInLLCTagExt {
		dirEntries = cfg.DirEntriesPerSlice(scheme.Ratio) * cores
	}
	// Sharer vector + state/policy + tag: a 155-bit entry at 128 cores.
	dirBytes := energy.DirectoryBytes(max(dirEntries, 1), cores+27+32)
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

// ablFormat compares sharer-encoding formats on a 1x sparse directory:
// execution time and coherence traffic, normalized to the full-map 1x
// configuration.
func (s *Suite) ablFormat() Figure {
	ref := SparseDirectory(1)
	names := []string{"ptr1", "ptr4", "coarse4", "coarse8"}
	var times []namedScheme
	for _, name := range names {
		times = append(times, namedScheme{"time:" + name, SparseDirectoryWithFormat(1, name)})
	}
	f := appFigure("AblFormat", "Sharer-encoding formats on a 1x sparse directory", "x vs fullmap",
		s.cyclesVs(Apps(), ref, times))
	for _, name := range names {
		f.Series = append(f.Series, perProfile(Apps(), "coh-traffic:"+name, func(app Profile) float64 {
			base := s.run(app, ref).Metrics.TrafficBytes[2]
			m := s.run(app, SparseDirectoryWithFormat(1, name)).Metrics
			if base == 0 {
				return 1
			}
			return float64(m.TrafficBytes[2]) / float64(base)
		}))
	}
	return f
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
