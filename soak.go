package tinydir

// Seeded soak harness for the fault-injection layer (DESIGN.md §10): run
// the same workload across many fault seeds per scheme and hold every run
// to the full survival contract — it drains, the golden reference machine
// (internal/system.GoldenChecker) sees zero invariant violations, the end
// state is coherent, and every core retires exactly the references the
// fault-free baseline does. Any shortfall (including a deadlock panic out
// of Complete, or a blown wall-clock deadline) is one recorded failure;
// the soak always finishes the sweep.

import (
	"fmt"
	"io"
	"time"

	"tinydir/internal/fault"
	"tinydir/internal/system"
)

// SoakOptions configures a fault-injection soak sweep.
type SoakOptions struct {
	// Seeds is the number of fault seeds per scheme; run i uses
	// FaultSeed + i, so a failing seed replays in isolation.
	Seeds int
	// FaultRate is the uniform fault rate (see internal/fault.Uniform);
	// must be > 0 — soaking a fault-free machine proves nothing.
	FaultRate float64
	// FaultSeed is the base PRNG seed (default 1).
	FaultSeed uint64
	// Scale selects the machine (zero value = ScaleTest: the soak's value
	// is seed count, not machine size).
	Scale Scale
	// App pins every seed to one workload profile. Empty selects the
	// rotation in Apps.
	App string
	// Apps is the workload rotation: seed i runs Apps[i%len(Apps)], so a
	// sweep exercises every sharing shape and a failing (seed, app) pair
	// still replays in isolation via App. Empty (with App empty too)
	// defaults to barnes plus the five family profiles — the contended
	// classic and the sharing-pattern extremes of internal/trace/families.
	Apps []string
	// Timeout bounds each run's wall clock (0 = none); a run exceeding it
	// fails with a RunTimeoutError instead of wedging the soak.
	Timeout time.Duration
}

// SoakRun is one (scheme, seed, app) soak outcome.
type SoakRun struct {
	Scheme  string
	Seed    uint64
	App     string
	Retires uint64
	Err     string // "" = the run met the full survival contract
}

// SoakReport aggregates a soak sweep.
type SoakReport struct {
	Runs     []SoakRun
	Failures int
	// Stats sums the fault counters over every run, proving the
	// machinery was exercised (all-zero drops at a nonzero rate means a
	// dead injection path, which Soak itself reports as a failure).
	Stats fault.Stats
}

// soakSchemes is the scheme set the soak sweeps: the sparse-directory
// baseline, the paper's tiny directory, and the broadcast-recovering
// stash — the three coherence-tracking shapes with distinct fault
// recovery paths (full tracking, generational eviction, broadcast oracle).
func soakSchemes() []Scheme {
	return []Scheme{
		SparseDirectory(0.5),
		TinyDirectory(1.0/64, true, true),
		Stash(0.25),
	}
}

// Soak runs the sweep and reports per-run outcomes. progress may be nil.
func Soak(o SoakOptions, progress io.Writer) SoakReport {
	if o.Seeds <= 0 {
		o.Seeds = 8
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = 1
	}
	if o.Scale.Cores == 0 {
		o.Scale = ScaleTest
	}
	apps := o.Apps
	if o.App != "" {
		apps = []string{o.App}
	} else if len(apps) == 0 {
		apps = []string{"barnes"}
		for _, p := range FamilyApps() {
			apps = append(apps, p.Name)
		}
	}
	logf := func(format string, args ...interface{}) {
		if progress != nil {
			fmt.Fprintf(progress, format, args...)
		}
	}

	var rep SoakReport
	for _, sch := range soakSchemes() {
		// Fault-free baselines, one per workload in the rotation, computed
		// on first need: the retire count every faulted run must reproduce
		// exactly (faults may delay references, never eat them).
		baselines := map[string]uint64{}
		baseErrs := map[string]string{}
		baseline := func(name string) (uint64, string) {
			if e, bad := baseErrs[name]; bad {
				return 0, e
			}
			if b, ok := baselines[name]; ok {
				return b, ""
			}
			b, _, err := soakOne(Options{App: App(name), Scheme: sch, Scale: o.Scale, Timeout: o.Timeout})
			if err != nil {
				baseErrs[name] = "fault-free baseline: " + err.Error()
				logf("soak: %s/%s: baseline FAILED: %v\n", sch, name, err)
				return 0, baseErrs[name]
			}
			baselines[name] = b
			return b, ""
		}
		for i := 0; i < o.Seeds; i++ {
			seed := o.FaultSeed + uint64(i)
			appName := apps[i%len(apps)]
			run := SoakRun{Scheme: sch.String(), Seed: seed, App: appName}
			base, baseErr := baseline(appName)
			if baseErr != "" {
				run.Err = baseErr
				rep.Failures++
				rep.Runs = append(rep.Runs, run)
				continue
			}
			retires, stats, err := soakOne(Options{App: App(appName), Scheme: sch, Scale: o.Scale,
				FaultRate: o.FaultRate, FaultSeed: seed, Timeout: o.Timeout})
			run.Retires = retires
			switch {
			case err != nil:
				run.Err = err.Error()
			case retires != base:
				run.Err = fmt.Sprintf("retired %d references, fault-free baseline retired %d", retires, base)
			case stats.MeshDrops == 0 && stats.MeshDelays == 0 && stats.ECCDetected == 0 && stats.DRAMAborts == 0:
				run.Err = fmt.Sprintf("no faults fired at rate %g: injection path dead", o.FaultRate)
			}
			addStats(&rep.Stats, stats)
			if run.Err != "" {
				rep.Failures++
				logf("soak: %s seed %d (%s) FAILED: %s\n", sch, seed, appName, run.Err)
			}
			rep.Runs = append(rep.Runs, run)
		}
		logf("soak: %s: %d seeds done\n", sch, o.Seeds)
	}
	return rep
}

// soakOne executes one run under the golden reference machine and checks
// the whole survival contract. It builds the machine like every other run
// (normalized options, startSystem) with the golden checker attached,
// under the same panic guard, so a wedged seed (deadlock detection, a
// blown wall-clock deadline) is one failure line.
func soakOne(o Options) (retires uint64, stats fault.Stats, err error) {
	o = normalizeOptions(o)
	g := system.NewGoldenChecker()
	if perr := guard(func() {
		start := time.Now()
		sys := startSystem(o, g)
		completeBounded(sys, o, start)
		if flt := sys.FaultInjector(); flt != nil {
			stats = flt.Stats
		}
		if v := g.Violations(); len(v) > 0 {
			err = fmt.Errorf("%d golden-machine violations, first: %s", len(v), v[0])
		} else if bad := sys.CheckCoherence(false); len(bad) > 0 {
			err = fmt.Errorf("%d end-state violations, first: %s", len(bad), bad[0])
		}
		// Only now is the machine dead: the end-state check above reads
		// its caches, which release hands to the next run.
		sys.ReleaseStorage()
	}); perr != nil {
		return 0, fault.Stats{}, fmt.Errorf("run panicked: %w", perr)
	}
	return g.Retires(), stats, err
}

// addStats accumulates src into dst field by field.
func addStats(dst *fault.Stats, src fault.Stats) {
	dst.MeshDelays += src.MeshDelays
	dst.MeshDrops += src.MeshDrops
	dst.MeshDups += src.MeshDups
	dst.ECCDetected += src.ECCDetected
	dst.ECCInvals += src.ECCInvals
	dst.DRAMAborts += src.DRAMAborts
	dst.ReqTimeouts += src.ReqTimeouts
	dst.EvictRetransmits += src.EvictRetransmits
	dst.DupReqs += src.DupReqs
	dst.DupEvicts += src.DupEvicts
	dst.StaleEvictAcks += src.StaleEvictAcks
	dst.BankTxnLate += src.BankTxnLate
}
