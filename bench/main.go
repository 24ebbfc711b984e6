// Command bench is the repository's benchmark. It runs five fixed
// workloads — explicit lists of simulations through tinydir.Run, the run
// store and the sweep fleet — each in its own child process, checks
// every result, and prints the end-to-end metrics; with -trace it makes a
// separate traced run and prints per-layer metrics instead. See
// README.md for the workloads and metrics.
//
//	bash bench/run.sh --workload fig1-128 --seed 0 --seconds 10 --trace 0
//	go -C bench run . -workloads fig1-128,store-128 -runs 5 -json results/x.json
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command's flags.
type options struct {
	workloads string
	seed      uint64
	seconds   float64
	trace     bool
	jsonPath  string
	runs      int
	workdir   string
	smoke     bool
	child     string
	setupOnly bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workloads, "workloads", "", "comma-separated workloads to run (default: all)")
	fs.StringVar(&o.workloads, "workload", "", "alias of -workloads")
	fs.Uint64Var(&o.seed, "seed", 0, "workload seed, added to every profile's own seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long each workload run measures (at least three passes)")
	fs.BoolVar(&o.trace, "trace", false, "make the traced run and print per-layer metrics")
	fs.StringVar(&o.jsonPath, "json", "", "also write the full record (fingerprint, calibration, quartiles, digests) to this file")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload, with seeds seed, seed+1, ...; metrics are medians with quartiles")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for stores, journals and span files")
	fs.BoolVar(&o.smoke, "smoke", false, "run every workload at 8 cores and a few references")
	fs.StringVar(&o.child, "child", "", "internal: run one workload in this process")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	if err := fs.Parse(boolArgs(args, "trace")); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.runs < 1 {
		return o, fmt.Errorf("-runs must be at least 1")
	}
	return o, nil
}

// boolArgs joins "--name 0" and "--name 1" into "--name=0" and
// "--name=1": the flag package reads a bare boolean flag as true and
// would leave the value behind as an argument.
func boolArgs(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	if o.child != "" {
		return childMain(o, sz, stdout, stderr)
	}
	ws, err := selectWorkloads(o.workloads)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rec := record{Fingerprint: machineFingerprint(), Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Trace: o.trace}
	allCorrect := true
	for _, w := range ws {
		wr, err := runWorkload(w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		if err := wr.print(stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		rec.Workloads = append(rec.Workloads, wr)
		allCorrect = allCorrect && wr.Correct
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// childMain runs one workload in this process: set-up, then the
// measured passes or the traced run. It reports "ready" on stdout when
// set-up is done and the result as one "result" JSON line at the end.
func childMain(o options, sz sizes, stdout, stderr io.Writer) int {
	w, ok := workloadByName(o.child)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.child)
		return 2
	}
	e, err := newEnv(w, sz, o.seed, o.workdir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer e.close()
	if err := e.setup(); err != nil {
		fmt.Fprintf(stderr, "bench: %s set-up: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	if o.setupOnly {
		return 0
	}
	var res childResult
	if o.trace {
		res = e.traced(o.seconds)
	} else {
		res, _, _ = e.measure(o.seconds)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "result %s\n", data)
	return 0
}

// setupRuns is how many child processes each run starts; all but the
// last stop after set-up, and setup_s is their median.
const setupRuns = 5

// childTimeout bounds one child process.
const childTimeout = 170 * time.Second

// childRun is what the parent observes of one child process.
type childRun struct {
	setup time.Duration // from process start until set-up was done
	res   childResult
}

func spawn(w workload, o options, seed uint64, setupOnly bool, stderr io.Writer) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-child", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-workdir", o.workdir,
		"-trace=" + strconv.FormatBool(o.trace), "-setup-only=" + strconv.FormatBool(setupOnly),
		"-smoke=" + strconv.FormatBool(o.smoke)}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var cr childRun
	var gotResult bool
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<30)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "ready":
			cr.setup = time.Since(start)
		case strings.HasPrefix(line, "result "):
			if err := json.Unmarshal([]byte(line[len("result "):]), &cr.res); err != nil {
				cmd.Process.Kill()
				cmd.Wait()
				return childRun{}, fmt.Errorf("child result: %w", err)
			}
			gotResult = true
		}
	}
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("child: %w", err)
	}
	if cr.setup == 0 || (!setupOnly && !gotResult) {
		return childRun{}, errors.New("child ended without reporting")
	}
	return cr, nil
}

// driftBound is the calibration drift, in percent, past which a run's
// timings are flagged as taken while the machine changed speed.
const driftBound = 5.0

// runWorkload makes o.runs runs of one workload, each with its own
// seed, set-up children and calibration.
func runWorkload(w workload, o options, stderr io.Writer) (*workloadRecord, error) {
	wr := &workloadRecord{Name: w.name, Correct: true, Traced: o.trace, Metrics: map[string]*metricStats{}}
	for r := 0; r < o.runs; r++ {
		seed := o.seed + uint64(r)
		before := calibrate(7)
		var setups []float64
		var last childRun
		for i := range setupRuns {
			cr, err := spawn(w, o, seed, i < setupRuns-1, stderr)
			if err != nil {
				return wr, err
			}
			setups = append(setups, cr.setup.Seconds())
			last = cr
		}
		after := calibrate(7)
		c := last.res
		wr.Attempted += c.Attempted
		wr.Failed += c.Failed
		wr.Correct = wr.Correct && c.Failed == 0 && c.Attempted > 0
		wr.Errors = append(wr.Errors, c.Errors...)
		wr.Digests = append(wr.Digests, c.Digest)
		wr.Pins = append(wr.Pins, c.Pin)
		wr.TailPct = c.TailPct
		wr.Units = c.Units
		if c.Spans != "" {
			wr.Spans = c.Spans
		}
		cal := newCalibration(before, after)
		wr.Calibration = append(wr.Calibration, cal)
		wr.add("setup_s", "s", median(setups))
		wr.add("allocs_per_ref", "count", ratio(float64(c.Mallocs), c.Refs*float64(c.Passes)))
		wr.add("bytes_per_ref", "B", ratio(float64(c.Bytes), c.Refs*float64(c.Passes)))
		wr.add("wall_s", "s", c.WallS)
		wr.add("ns_per_ref", "ns", ratio(c.WallS*1e9, c.Refs))
		wr.add("unit_ms_p50", "ms", median(c.UnitMS))
		wr.add("unit_ms_tail", "ms", quantile(c.UnitMS, c.TailPct/100))
		wr.add("peak_rss_mb", "MB", c.RssMB)
		wr.add("units", "count", float64(c.Units))
		wr.add("fail_frac", "fraction", ratio(float64(c.Failed), float64(c.Attempted)))
		if o.trace {
			for k, v := range c.Layers {
				wr.add(k, layerUnit(k), v)
			}
			wr.add("bench.noise_floor_pct", "%", cal.NoiseFloorPct)
		}
	}
	return wr, nil
}
