// Command experiments regenerates the paper's figures. Each figure is a
// table of per-application values (plus Average), in the units the paper
// plots. Results are self-normalized to the 2x sparse-directory baseline
// exactly like the paper.
//
//	experiments                 # the whole suite (Figs. 1-22 + halved)
//	experiments -fig 10         # one figure
//	experiments -scale full     # the 128-core machine (slow)
//	experiments -j 1            # serial fallback (default: all CPUs)
//	experiments -cache-dir runs          # persist per-run results
//	experiments -cache-dir runs -resume  # continue an interrupted sweep
//	experiments -fig 1 -cpuprofile cpu.pb.gz   # profile the hot path
//
// The time-resolved observability layer (see DESIGN.md §9) is surfaced
// through the -obs-* flags:
//
//	experiments -fig 1 -obs-dir obs              # epoch CSV + latency histograms per run
//	experiments -fig 1 -obs-dir obs -obs-epochs 1000 -obs-trace 200000
//	experiments -watchdog 2000000                # dump stalled machine state to stderr
//	experiments -http localhost:6060             # live dashboard + /metrics + pprof
//
// Observability is pure observation — every figure and stored result is
// bit-identical with it on or off.
//
// Each simulation is independent, so the suite runs them on a worker
// pool of -j goroutines. Output is bit-identical at any -j: figures are
// always assembled serially from deterministic per-run results.
//
// The sweep also distributes (DESIGN.md §12). A coordinator plans the
// figures and serves runs as leased work units; pull-based workers on
// other machines (or terminals) execute them against the coordinator's
// run store mounted over HTTP:
//
//	experiments -serve -http :6060 -cache-dir runs -fig 1 -csv   # coordinator
//	experiments -serve ... -journal-dir wal                      # crash-safe: restart resumes
//	experiments -worker http://localhost:6060                    # each worker
//	experiments -store-gc 720h -cache-dir runs                   # prune stale entries
//	experiments -store-gc 720h -store-gc-dry-run -cache-dir runs # preview, per-kind breakdown
//	experiments -store-scrub -cache-dir runs                     # verify seals, quarantine rot
//
// Figure output from a distributed sweep is byte-identical to a local
// run: workers dedup through the same content-addressed store and the
// coordinator assembles figures from the same serial pass. In -serve
// mode, -j bounds how many units are outstanding at once — size it to at
// least the fleet's total parallelism.
//
// Robustness (DESIGN.md §10): a run that panics or blows -run-timeout is
// quarantined (post-mortem under <obs-dir>/quarantine/) while the sweep
// continues; the process then exits nonzero with a failure summary.
// SIGINT/SIGTERM shuts a sweep down gracefully: in-flight runs finish
// and flush to the store, then the process prints a progress summary and
// exits 130. The deterministic fault-injection soak runs via:
//
//	experiments -soak 32                         # 32 seeds x {sparse, tiny, stash}
//	experiments -soak 8 -fault-rate 0.05 -fault-seed 7
//	experiments -soak 8 -soak-app worksteal      # pin the soak to one workload
//	experiments -run-timeout 5m                  # deadline-bound every figure run
//
// By default the soak rotates seeds through barnes plus the five
// workload families (falseshare, lockhome, ringbuf, worksteal,
// multiprog); those families also have their own figure row
// (-fig families).
//
// Externally captured traces (or tracegen -write output) replay through
// the same machine via the trace-file path:
//
//	tracegen -app falseshare -cores 32 -write fs.trace
//	experiments -trace-file fs.trace -scheme tiny -ratio 0.015625
package main

import (
	"context"
	_ "expvar" // -http serves /debug/vars (runtime memstats)
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -http serves /debug/pprof/ for live sweeps
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"tinydir"
	"tinydir/internal/telemetry"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure id ("+strings.Join(tinydir.FigureIDs(true), " ")+`) or "all" (every figure but the ablations)`)
		scale      = flag.String("scale", "experiment", "test | experiment | full")
		quiet      = flag.Bool("q", false, "suppress per-run progress")
		csvOut     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jobs       = flag.Int("j", runtime.NumCPU(), "max simulations run concurrently (1 = serial); in -serve mode, max outstanding work units")
		cacheDir   = flag.String("cache-dir", "", "persist per-run results in this directory")
		resume     = flag.Bool("resume", false, "serve results already present in -cache-dir instead of re-simulating")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		obsDir     = flag.String("obs-dir", "", "write per-run observability artifacts (epoch CSV, latency histograms, trace JSON) to this directory")
		obsEpochs  = flag.Uint64("obs-epochs", 0, "epoch sampling interval in cycles (0 = off; -obs-dir alone defaults it)")
		obsTrace   = flag.Int("obs-trace", 0, "max Chrome trace-event spans recorded per run (0 = off; needs -obs-dir)")
		watchdog   = flag.Uint64("watchdog", 0, "dump machine state when no core retires for this many cycles (0 = off)")
		httpAddr   = flag.String("http", "", "serve the live sweep dashboard (plus /metrics, expvar and pprof) on this address")
		serveMode  = flag.Bool("serve", false, "coordinate a distributed sweep: serve planned runs as work units to -worker processes (needs -http and -cache-dir)")
		workerURL  = flag.String("worker", "", "join the fleet of the coordinator at this base URL (e.g. http://host:6060) instead of planning figures")
		workerName = flag.String("worker-name", "", "worker identity in leases and on the dashboard (default: hostname-pid)")
		workerLRU  = flag.Int64("worker-cache", 64<<20, "worker-side in-memory result cache over the coordinator's store, in bytes (0 = none)")
		storeGC    = flag.Duration("store-gc", 0, "prune -cache-dir entries older than this age and exit (e.g. 720h)")
		storeGCDry = flag.Bool("store-gc-dry-run", false, "with -store-gc: report what would be pruned without deleting")
		storeScrub = flag.Bool("store-scrub", false, "verify every -cache-dir entry against its sha256 seal (quarantining corrupt ones) and exit")
		journalDir = flag.String("journal-dir", "", "with -serve: write-ahead journal directory; restarting on the same directory resumes the sweep crash-safely (default: a temporary directory)")
		soak       = flag.Int("soak", 0, "run a fault-injection soak over this many seeds per scheme instead of figures")
		soakApp    = flag.String("soak-app", "", "pin -soak to one workload (default: rotate barnes + the five families)")
		traceFile  = flag.String("trace-file", "", "replay a trace file (tracegen -write) through one scheme instead of figures")
		schemeName = flag.String("scheme", "tiny", "tracking scheme for -trace-file: sparse | sharedonly | inllc | tiny | mgd | stash")
		ratio      = flag.Float64("ratio", 1.0/64, "directory size ratio for -trace-file schemes that take one")
		faultRate  = flag.Float64("fault-rate", 0.02, "uniform fault rate for -soak (see internal/fault)")
		faultSeed  = flag.Uint64("fault-seed", 1, "base PRNG seed for -soak; seed i of a sweep uses fault-seed+i")
		runTimeout = flag.Duration("run-timeout", 0, "per-run wall-clock deadline; a run exceeding it is quarantined (0 = none)")
		logLevel   = flag.String("log-level", "warn", "structured log threshold: debug | info | warn | error")
		logJSON    = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of text")
		leaseTTL   = flag.Duration("lease-ttl", 0, "work-unit lease TTL in -serve mode; a worker silent this long loses the unit (0 = 30s default)")
	)
	flag.Parse()

	lvl, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	logger := telemetry.NewLogger(os.Stderr, lvl, *logJSON)

	requires := func(set, has bool, flag, req string) {
		if set && !has {
			fmt.Fprintf(os.Stderr, "experiments: %s requires %s\n", flag, req)
			os.Exit(2)
		}
	}
	requires(*resume, *cacheDir != "", "-resume", "-cache-dir")
	requires(*storeGCDry, *storeGC > 0, "-store-gc-dry-run", "-store-gc")
	requires(*obsTrace > 0, *obsDir != "", "-obs-trace", "-obs-dir")
	if *storeGC > 0 {
		runStoreGC(*cacheDir, *storeGC, *storeGCDry)
		return
	}
	if *storeScrub {
		runStoreScrub(*cacheDir)
		return
	}
	if *workerURL != "" {
		runWorker(*workerURL, *workerName, *workerLRU, *runTimeout, *quiet, logger)
		return
	}
	if *serveMode && (*httpAddr == "" || *cacheDir == "") {
		fmt.Fprintln(os.Stderr, "experiments: -serve requires -http (the listener workers connect to) and -cache-dir (the shared run store)")
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // surface only live + cumulative alloc data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}()
	}

	sc, err := tinydir.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if *soak > 0 {
		runSoak(sc, *soak, *soakApp, *faultRate, *faultSeed, *runTimeout, *quiet)
		return
	}
	if *traceFile != "" {
		runTraceFile(*traceFile, *schemeName, *ratio, *cacheDir, *resume, *runTimeout)
		return
	}

	suite := tinydir.NewSuite(sc)
	suite.Workers = *jobs
	suite.RunTimeout = *runTimeout
	if *cacheDir != "" {
		store, err := tinydir.NewRunStore(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		suite.Store = store
		suite.Resume = *resume
	}
	if !*quiet {
		suite.Progress = os.Stderr
	}
	obsCfg := tinydir.ObsConfig{
		EpochInterval:  *obsEpochs,
		TraceSpans:     *obsTrace,
		WatchdogWindow: *watchdog,
		// Latency histograms ride along whenever anything else is on —
		// they cost a handful of counters per run.
		Latency: *obsEpochs > 0 || *obsTrace > 0 || *watchdog > 0 || *obsDir != "",
	}
	if *obsDir != "" && obsCfg.EpochInterval == 0 {
		obsCfg.EpochInterval = tinydir.DefaultEpochInterval
	}
	suite.Obs = obsCfg
	suite.ObsDir = *obsDir

	// The telemetry registry backs /metrics and the dashboard's store
	// panel. It only exists when something can serve it — without -http
	// every instrument stays nil and the hot paths run the identical
	// off-state instruction stream.
	var reg *telemetry.Registry
	if *httpAddr != "" {
		reg = telemetry.NewRegistry()
		if suite.Store != nil {
			// Instrument before the sweep service shares the backend over
			// HTTP so workers' requests hit the instrumented view too.
			suite.Store.EnableTelemetry(reg, "dir")
		}
	}
	var svc *tinydir.SweepService
	if *serveMode {
		if *obsDir != "" {
			fmt.Fprintln(os.Stderr, "experiments: note: dispatched runs execute on workers; -obs-dir records no per-run artifacts in -serve mode")
		}
		svc, err = tinydir.AttachSweepServiceCfg(suite, suite.Store, http.DefaultServeMux, tinydir.SweepServiceConfig{
			JournalDir: *journalDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if *journalDir != "" {
			logger.Info("sweep journal attached",
				telemetry.F("dir", *journalDir), telemetry.F("epoch", svc.Coord.Epoch()))
		}
		svc.Coord.LeaseTTL = *leaseTTL
		svc.Coord.Log = func(format string, args ...interface{}) {
			logger.Info(fmt.Sprintf(format, args...))
		}
		svc.EnableTelemetry(reg)
	}
	if *httpAddr != "" {
		// Bind before planning anything so a taken port fails the sweep
		// up front instead of from an unmonitored goroutine minutes in.
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: http:", err)
			os.Exit(1)
		}
		mon := suite.Monitor()
		tinydir.RegisterSweepMetrics(reg, mon)
		http.Handle("/metrics", reg.Handler())
		dash := &tinydir.Dashboard{Reporter: mon, ObsDir: *obsDir, Registry: reg}
		if svc != nil {
			dash.Fleet = func() interface{} { return svc.Coord.Status() }
		}
		dash.Register(http.DefaultServeMux)
		go func() {
			// DefaultServeMux already carries expvar's /debug/vars and
			// pprof's /debug/pprof from their imports.
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: http:", err)
			}
		}()
	}

	// Graceful shutdown: first signal stops new runs (in-flight ones
	// finish and flush their results to the store); a second signal kills
	// the process the usual way.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		signal.Stop(sig)
		fmt.Fprintln(os.Stderr, "experiments: interrupted — letting in-flight runs finish and flush (again to kill)")
		suite.Cancel()
		if svc != nil {
			svc.Close()
		}
	}()

	start := time.Now()
	interrupted := func() {
		st := suite.Monitor().Snapshot()
		fmt.Fprintf(os.Stderr, "experiments: interrupted after %s: %d/%d runs done (%d served from store, %d failed); completed results are in the store\n",
			time.Since(start).Round(time.Second), st.Done, st.Planned, st.Served, st.Failed)
		os.Exit(130)
	}
	ids := []string{*fig}
	if strings.EqualFold(*fig, "all") {
		// Stream figure by figure so partial results survive interrupts.
		ids = tinydir.FigureIDs(false)
	}
	for _, id := range ids {
		f, err := suite.FigureByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		if suite.Cancelled() {
			interrupted() // a cancelled figure has zero slots; don't emit it
		}
		emit(f, *csvOut)
	}
	if svc != nil {
		// Sweep over: the next claim from each worker answers 410 and the
		// worker exits. Give pollers a moment to hear it before the
		// listener dies with the process.
		svc.Close()
		time.Sleep(1500 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "experiments: %d simulations in %s\n", suite.Runs(), time.Since(start).Round(time.Second))
	if suite.ReportFailures() > 0 {
		os.Exit(1)
	}
}

// runStoreGC prunes (or previews pruning) stale run-store entries.
func runStoreGC(cacheDir string, age time.Duration, dryRun bool) {
	if cacheDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -store-gc requires -cache-dir")
		os.Exit(2)
	}
	store, err := tinydir.NewRunStore(cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	stats, err := store.GC(age, dryRun)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: store-gc:", err)
		os.Exit(1)
	}
	verb := "pruned"
	if dryRun {
		verb = "would prune"
	}
	fmt.Printf("store-gc: scanned %d entries, %s %d (%d bytes), kept %d\n",
		stats.Scanned, verb, stats.Pruned, stats.PrunedBytes, stats.Kept)
	var totalPruned int64
	for _, kind := range sortedKinds(stats.Kinds) {
		ks := stats.Kinds[kind]
		totalPruned += ks.PrunedBytes
		fmt.Printf("store-gc:   %-22s scanned %d, %s %d (%d bytes), kept %d\n",
			kind, ks.Scanned, verb, ks.Pruned, ks.PrunedBytes, ks.Kept)
	}
	fmt.Printf("store-gc: total %s %d bytes across all kinds\n", verb, totalPruned)
}

func sortedKinds[V any](m map[string]V) []string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// runStoreScrub verifies every store entry against its seal,
// quarantining corrupt ones, and exits nonzero if any were found.
func runStoreScrub(cacheDir string) {
	if cacheDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -store-scrub requires -cache-dir")
		os.Exit(2)
	}
	store, err := tinydir.NewRunStore(cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	stats, err := store.Scrub()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: store-scrub:", err)
		os.Exit(1)
	}
	quarantined := 0
	for _, kind := range sortedKinds(stats.Kinds) {
		ks := stats.Kinds[kind]
		quarantined += ks.Quarantined
		fmt.Printf("store-scrub: %-12s scanned %d (%d bytes): %d ok, %d quarantined, %d errors\n",
			kind, ks.Scanned, ks.Bytes, ks.OK, ks.Quarantined, ks.Errors)
	}
	if quarantined > 0 {
		fmt.Fprintf(os.Stderr, "experiments: store-scrub: %d corrupt entries quarantined (their keys re-simulate on next use)\n", quarantined)
		os.Exit(1)
	}
}

// runWorker joins a coordinator's fleet until the sweep completes or the
// process is signalled.
func runWorker(url, name string, cacheBytes int64, timeout time.Duration, quiet bool, logger *telemetry.Logger) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var progress io.Writer
	if !quiet {
		progress = os.Stderr
	}
	err := tinydir.RunSweepWorker(ctx, tinydir.WorkerConfig{
		Coordinator: url,
		Name:        name,
		CacheBytes:  cacheBytes,
		RunTimeout:  timeout,
		Progress:    progress,
		Logger:      logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: worker:", err)
		os.Exit(1)
	}
}

// runSoak executes the seeded fault-injection soak (see tinydir.Soak) and
// exits nonzero if any run breaks the survival contract.
func runSoak(sc tinydir.Scale, seeds int, app string, rate float64, seed uint64, timeout time.Duration, quiet bool) {
	var progress *os.File
	if !quiet {
		progress = os.Stderr
	}
	start := time.Now()
	rep := tinydir.Soak(tinydir.SoakOptions{
		Seeds: seeds, FaultRate: rate, FaultSeed: seed, Scale: sc, App: app, Timeout: timeout,
	}, progress)
	fmt.Printf("soak: %d runs, %d failures in %s\n", len(rep.Runs), rep.Failures, time.Since(start).Round(time.Millisecond))
	fmt.Printf("soak: fault totals: %+v\n", rep.Stats)
	if rep.Failures > 0 {
		for _, r := range rep.Runs {
			if r.Err != "" {
				fmt.Printf("soak: FAILED %s seed %d (%s): %s\n", r.Scheme, r.Seed, r.App, r.Err)
			}
		}
		os.Exit(1)
	}
}

// parseScheme maps a -scheme name (+ -ratio) to a tracking scheme.
func parseScheme(name string, ratio float64) (tinydir.Scheme, error) {
	switch strings.ToLower(name) {
	case "sparse":
		return tinydir.SparseDirectory(ratio), nil
	case "sharedonly":
		return tinydir.SharedOnlyDirectory(ratio, false), nil
	case "inllc":
		return tinydir.InLLC(false), nil
	case "tiny":
		return tinydir.TinyDirectory(ratio, true, true), nil
	case "mgd":
		return tinydir.MgD(ratio), nil
	case "stash":
		return tinydir.Stash(ratio), nil
	}
	return tinydir.Scheme{}, fmt.Errorf("unknown scheme %q", name)
}

// runTraceFile replays one trace file through one scheme and prints the
// run's headline metrics plus its tracker counters.
func runTraceFile(path, schemeName string, ratio float64, cacheDir string, resume bool, timeout time.Duration) {
	scheme, err := parseScheme(schemeName, ratio)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	tr, err := tinydir.LoadTraceFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	o := tinydir.Options{Trace: tr, Scheme: scheme, Timeout: timeout}
	var store *tinydir.RunStore
	if cacheDir != "" {
		if store, err = tinydir.NewRunStore(cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	start := time.Now()
	r := tinydir.RunWithStore(o, store, resume)
	m := r.Metrics
	fmt.Printf("trace %s (digest %.12s…): app=%s cores=%d scheme=%s\n",
		path, tr.Digest, r.App, r.Cores, r.Scheme)
	fmt.Printf("cycles=%d llcAccesses=%d llcMisses=%d dramReads=%d dramWrites=%d (%s)\n",
		m.Cycles, m.LLCAccesses, m.LLCMisses, m.DRAMReads, m.DRAMWrites,
		time.Since(start).Round(time.Millisecond))
	for _, k := range tinydir.SortedTrackerKeys(m.Tracker) {
		fmt.Printf("  %-28s %d\n", k, m.Tracker[k])
	}
}

func emit(f tinydir.Figure, asCSV bool) {
	if asCSV {
		if err := f.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	f.Fprint(os.Stdout)
	fmt.Println()
}
