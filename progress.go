package tinydir

// Progress reporting for sweeps. Before this existed, every prefetch
// worker wrote its own lines straight to Suite.Progress, so `-j > 1`
// interleaved fragments of different runs. All progress now funnels
// through one mutex-guarded Reporter, which also keeps the counters the
// live sweep monitor (`experiments -http`) publishes and derives a run
// ETA from sweep throughput.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tinydir/internal/obs"
)

// Reporter serializes progress output and tracks sweep state. All methods
// are safe for concurrent use. The zero value is not usable; Suites build
// one lazily around their Progress writer.
type Reporter struct {
	mu      sync.Mutex
	w       io.Writer // nil = counters only, no output
	start   time.Time
	planned int
	done    int
	served  int // done runs answered from the store without simulating
	failed  int // done runs that panicked and were quarantined
	active  map[string]*obs.EpochSampler
}

// NewReporter creates a reporter writing to w (nil suppresses output but
// still tracks counters for the monitor).
func NewReporter(w io.Writer) *Reporter {
	return &Reporter{w: w, start: time.Now(), active: map[string]*obs.EpochSampler{}}
}

func (r *Reporter) printf(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil {
		fmt.Fprintf(r.w, format, args...)
	}
}

// addPlanned grows the sweep's expected run count (one prefetch plan at a
// time, as figures are built).
func (r *Reporter) addPlanned(n int) {
	r.mu.Lock()
	r.planned += n
	r.mu.Unlock()
}

// runStarted announces a run and registers its sampler (may be nil) for
// live IPC reporting.
func (r *Reporter) runStarted(app, scheme string, e *obs.EpochSampler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e != nil {
		r.active[app+" "+scheme] = e
	}
	if r.w != nil {
		fmt.Fprintf(r.w, "  running %-14s %s\n", app, scheme)
	}
}

// runDone retires a run, printing its duration and the sweep ETA.
func (r *Reporter) runDone(app, scheme string, simulated bool, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.active, app+" "+scheme)
	r.done++
	if !simulated {
		r.served++
	}
	if r.w == nil {
		return
	}
	suffix := fmt.Sprintf("[%d done]", r.done)
	if eta, ok := r.etaLocked(); ok {
		suffix = fmt.Sprintf("[%d/%d eta %s]", r.done, r.planned, eta.Round(time.Second))
	}
	fmt.Fprintf(r.w, "  done    %-14s %-28s %8s %s\n", app, scheme, d.Round(time.Millisecond), suffix)
}

// runFailed retires a quarantined run. The failure still counts toward
// done (the sweep's plan shrinks by it), and the line points at the
// quarantine artifact when one was written.
func (r *Reporter) runFailed(app, scheme, msg, artifact string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.active, app+" "+scheme)
	r.done++
	r.failed++
	if r.w == nil {
		return
	}
	fmt.Fprintf(r.w, "  FAILED  %-14s %-28s %s\n", app, scheme, msg)
	if artifact != "" {
		fmt.Fprintf(r.w, "          quarantined: %s\n", artifact)
	}
}

// etaLocked estimates time to finish the planned runs from sweep
// throughput so far. The rate is based on *executed* simulations only:
// store-served runs complete in ~0 wall time, so counting them (as this
// once did) made a mostly-warm resume report a wildly optimistic ETA for
// the cold tail. With nothing executed yet there is no throughput signal
// and no estimate; a zero-elapsed clock likewise yields none rather than
// a zero rate. Callers hold mu.
func (r *Reporter) etaLocked() (time.Duration, bool) {
	executed := r.done - r.served
	if r.planned < r.done || executed <= 0 {
		return 0, false
	}
	elapsed := time.Since(r.start)
	if elapsed <= 0 {
		return 0, false
	}
	remaining := r.planned - r.done
	per := elapsed / time.Duration(executed)
	return time.Duration(remaining) * per, true
}

// Writer returns an io.Writer whose Writes hold the reporter lock, so
// multi-line dumps (the stall watchdog's) never interleave with progress
// lines or each other.
func (r *Reporter) Writer() io.Writer { return lockedWriter{r} }

type lockedWriter struct{ r *Reporter }

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.r.mu.Lock()
	defer lw.r.mu.Unlock()
	if lw.r.w == nil {
		return len(p), nil
	}
	return lw.r.w.Write(p)
}

// ActiveRun is one in-flight simulation in a SweepStatus.
type ActiveRun struct {
	Name string
	// IPC is the last completed epoch's retirement rate; 0 until the
	// run's first epoch closes (or when epoch sampling is off).
	IPC float64
}

// SweepStatus is the monitor's view of a sweep, served by
// `experiments -http` in /dash/status and as the tinydir_sweep_* gauges.
type SweepStatus struct {
	Planned int
	Done    int
	Served  int // answered from the run store without simulating
	Failed  int // panicked and quarantined
	Elapsed time.Duration
	ETA     time.Duration // 0 when unknown
	Active  []ActiveRun
}

// Snapshot returns the current sweep state. Safe to call from any
// goroutine while runs execute.
func (r *Reporter) Snapshot() SweepStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := SweepStatus{
		Planned: r.planned,
		Done:    r.done,
		Served:  r.served,
		Failed:  r.failed,
		Elapsed: time.Since(r.start).Round(time.Millisecond),
	}
	if eta, ok := r.etaLocked(); ok {
		st.ETA = eta.Round(time.Millisecond)
	}
	for name, e := range r.active {
		st.Active = append(st.Active, ActiveRun{Name: name, IPC: e.LatestIPC()})
	}
	sort.Slice(st.Active, func(i, j int) bool { return st.Active[i].Name < st.Active[j].Name })
	return st
}

// newRecorder builds a fresh per-run recorder from the suite's Obs
// config, or nil when observability is off. Watchdog dumps default to the
// reporter's locked writer so they cannot interleave with progress lines.
func (s *Suite) newRecorder(rep *Reporter) *ObsRecorder {
	if !s.Obs.Enabled() {
		return nil
	}
	cfg := s.Obs
	if cfg.WatchdogWindow != 0 && cfg.StallOut == nil {
		cfg.StallOut = rep.Writer()
	}
	return NewObsRecorder(cfg)
}

// sampler returns the epoch sampler of a recorder that may be nil.
func sampler(rec *ObsRecorder) *obs.EpochSampler {
	if rec == nil {
		return nil
	}
	return rec.Epochs
}

// runName names one run for the monitor and its artifacts: the scheme's
// legend name plus a -genlenN or -windowN suffix when the options set
// that ablation knob, so runs whose keys differ never share a name.
func runName(sch Scheme) string {
	n := sch.String()
	if sch.FixedGenLen != 0 {
		n += fmt.Sprintf("-genlen%d", sch.FixedGenLen)
	}
	if sch.SpillWindow != 0 {
		n += fmt.Sprintf("-window%d", sch.SpillWindow)
	}
	return n
}

// obsFileBase derives the artifact file stem for one run. Scheme names
// contain '/' (ratio spellings like "tiny-1/64x-dstra"), which must not
// become path separators.
func obsFileBase(app string, scheme Scheme, sc Scale) string {
	name := app + "_" + runName(scheme) + "_" + sc.Name
	if sc.HalveHierarchy {
		name += "_halved"
	}
	return strings.NewReplacer("/", "-", "|", "-").Replace(name)
}

// writeObsArtifacts emits one simulated run's observability files under
// ObsDir: <base>.epochs.csv, <base>.latency.txt, <base>.trace.json —
// whichever pieces the config enabled. The scale comes from the run's own
// Options, not the suite's (derived sub-suites run at other scales).
// Failures are reported, not fatal: a sweep should not die because an
// artifact disk filled.
func (s *Suite) writeObsArtifacts(o Options, rec *ObsRecorder, rep *Reporter) {
	if s.ObsDir == "" || rec == nil {
		return
	}
	base := filepath.Join(s.ObsDir, obsFileBase(o.App.Name, o.Scheme, o.Scale))
	emit := func(ext string, write func(io.Writer) error) error {
		f, err := os.Create(base + ext)
		if err != nil {
			return err
		}
		werr := write(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		return cerr
	}
	err := os.MkdirAll(s.ObsDir, 0o755)
	if err == nil && rec.Epochs != nil {
		err = emit(".epochs.csv", rec.Epochs.WriteCSV)
	}
	if err == nil {
		err = emit(".latency.txt", rec.Latency.WriteText)
	}
	if err == nil && rec.Trace != nil {
		err = emit(".trace.json", rec.Trace.WriteJSON)
	}
	if err != nil {
		rep.printf("  obs: %v\n", err)
	}
}

// executeRun performs one run with progress reporting and failure
// quarantine — the one code path behind the serial figure builder, the
// prefetch workers and, through Dispatch, the fleet. A failed run (a
// panic caught by guard: a protocol deadlock, a blown wall-clock
// deadline, a plain bug; or a dispatched unit's error) is quarantined:
// its post-mortem goes to an artifact under ObsDir, the failure is
// recorded for Failures(), and the sweep continues with a zero Result in
// that slot.
func (s *Suite) executeRun(o Options) (Result, bool) {
	zero := Result{App: o.App.Name, Scheme: o.Scheme.String()}
	if s.Cancelled() {
		// Graceful shutdown: skip the simulation entirely. The figure
		// assembled from this zero result is discarded by the caller
		// (Cancelled() gates output).
		return zero, false
	}
	rep := s.Monitor()
	var rec *ObsRecorder
	if s.Dispatch == nil {
		// The recorder is per-process state a remote worker cannot share.
		rec = s.newRecorder(rep)
		o.Obs = rec
	}
	name := runName(o.Scheme)
	rep.runStarted(o.App.Name, name, sampler(rec))
	start := time.Now()
	r, simulated, err := s.attempt(o)
	if err != nil {
		if s.Dispatch != nil && s.Cancelled() {
			// The dispatch path was torn down under us (coordinator
			// closed); the output is discarded anyway, so this is not a
			// run failure worth recording.
			return zero, false
		}
		f := RunFailure{App: o.App.Name, Scheme: name, Err: err.Error()}
		f.Artifact = s.quarantine(o, err)
		s.sh.mu.Lock()
		s.sh.failures = append(s.sh.failures, f)
		s.sh.mu.Unlock()
		rep.runFailed(o.App.Name, name, f.Err, f.Artifact)
		return zero, false
	}
	if simulated {
		s.writeObsArtifacts(o, rec, rep)
	}
	rep.runDone(o.App.Name, name, simulated, time.Since(start))
	return r, simulated
}

// attempt runs o once, after filling a zero o.Timeout with RunTimeout:
// through Dispatch when one is set, else locally through the store under
// guard. A fleet worker executes its units through the same method, so a
// dispatched run fails exactly as a local one does.
func (s *Suite) attempt(o Options) (r Result, simulated bool, err error) {
	if o.Timeout == 0 {
		o.Timeout = s.RunTimeout
	}
	if s.Dispatch != nil {
		return s.Dispatch(o)
	}
	err = guard(func() { r, simulated = runWithStore(o, s.Store, s.Resume) })
	return r, simulated, err
}

// quarantine writes a failed run's post-mortem — options, error, and for
// a caught panic the stalled machine dump and stack — to
// <ObsDir>/quarantine/<base>.txt and returns the path ("" when ObsDir is
// unset or the write fails; the failure itself is still recorded either
// way).
func (s *Suite) quarantine(o Options, failure error) string {
	if s.ObsDir == "" {
		return ""
	}
	dir := filepath.Join(s.ObsDir, "quarantine")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.Monitor().printf("  quarantine: %v\n", err)
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "quarantined run: %s %s scale=%s\n", o.App.Name, o.Scheme, o.Scale.Name)
	fmt.Fprintf(&b, "options: scheme=%+v scale=%+v maxevents=%d fault-rate=%g fault-seed=%d timeout=%s run-timeout=%s\n",
		o.Scheme, o.Scale, o.MaxEvents, o.FaultRate, o.FaultSeed, o.Timeout, s.RunTimeout)
	fmt.Fprintf(&b, "error: %s\n", failure)
	var p *runPanic
	if errors.As(failure, &p) {
		if p.dump != "" {
			fmt.Fprintf(&b, "\nstalled machine state:\n%s", p.dump)
		}
		fmt.Fprintf(&b, "\nstack:\n%s", p.stack)
	}
	path := filepath.Join(dir, obsFileBase(o.App.Name, o.Scheme, o.Scale)+".txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		s.Monitor().printf("  quarantine: %v\n", err)
		return ""
	}
	return path
}
