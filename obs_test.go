package tinydir

// End-to-end tests of the observability layer: a golden fixture pinning
// the exact artifact bytes of one instrumented run, determinism checks
// (same run twice, and a whole sweep at -j 1 vs -j 4), the
// epochs-sum-to-aggregate contract, proof that recording leaves Metrics
// untouched, and a race smoke (run under -race in CI) that polls the
// live monitor while a parallel sweep executes.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// obsScale is small enough that an instrumented run takes milliseconds
// but still exercises misses, forwards, NACK/retry and DRAM traffic.
var obsScale = Scale{Name: "obs-golden", Cores: 8, Refs: 800}

func obsGoldenOptions() Options {
	return Options{App: App("barnes"), Scheme: TinyDirectory(1.0/64, true, true), Scale: obsScale}
}

// runObsGolden executes the fixture run with a fresh recorder and returns
// the three artifacts concatenated under section headers.
func runObsGolden(t *testing.T) []byte {
	t.Helper()
	rec := NewObsRecorder(ObsConfig{EpochInterval: 1000, TraceSpans: 4000})
	o := obsGoldenOptions()
	o.Obs = rec
	r := Run(o)
	if r.Metrics.Cycles == 0 {
		t.Fatal("obs golden run retired nothing")
	}
	var buf bytes.Buffer
	for _, part := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"epochs.csv", rec.Epochs.WriteCSV},
		{"latency.txt", rec.Latency.WriteText},
		{"trace.json", rec.Trace.WriteJSON},
	} {
		buf.WriteString("== " + part.name + " ==\n")
		if err := part.write(&buf); err != nil {
			t.Fatalf("%s: %v", part.name, err)
		}
	}
	return buf.Bytes()
}

// TestObsGolden pins the exact bytes of every artifact kind for one
// instrumented run. The simulator and the writers are deterministic, so
// this either matches or something real changed; refresh intentionally
// with:
//
//	go test -run TestObsGolden -update .
func TestObsGolden(t *testing.T) {
	got := runObsGolden(t)
	path := filepath.Join("testdata", "obs_golden.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("obs artifacts drifted from %s — if intentional, regenerate with -update.\n--- got ---\n%s", path, got)
	}
}

// TestObsDeterminism runs the fixture twice from scratch and demands
// byte-identical artifacts.
func TestObsDeterminism(t *testing.T) {
	a := runObsGolden(t)
	b := runObsGolden(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical instrumented runs produced different artifact bytes")
	}
}

// TestObsSuiteDeterministicAtAnyJ builds the same instrumented figure
// serially and with four workers and compares every artifact file
// byte-for-byte: worker count and completion order must never leak into
// obs output.
func TestObsSuiteDeterministicAtAnyJ(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sweep := func(workers int) map[string][]byte {
		s := NewSuite(Scale{Name: "obs-det", Cores: 8, Refs: 400})
		s.Workers = workers
		s.Obs = ObsConfig{EpochInterval: 1000, TraceSpans: 2000}
		s.ObsDir = t.TempDir()
		if f := buildFigure(s, "7"); len(f.Series) == 0 {
			t.Fatal("Fig7 produced no data")
		}
		files := map[string][]byte{}
		ents, err := os.ReadDir(s.ObsDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(s.ObsDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = b
		}
		return files
	}
	serial := sweep(1)
	parallel := sweep(4)
	if len(serial) == 0 {
		t.Fatal("sweep wrote no obs artifacts")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("artifact sets differ: %d files at -j1, %d at -j4", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Fatalf("artifact %s missing at -j4", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("artifact %s differs between -j1 and -j4", name)
		}
	}
}

// TestEpochDeltasSumToAggregate is the epoch sampler's core contract:
// every counter's per-epoch deltas sum exactly to the run's aggregate
// Metrics, and the final epoch ends at the drain cycle — nothing is lost
// at either boundary.
func TestEpochDeltasSumToAggregate(t *testing.T) {
	rec := NewObsRecorder(ObsConfig{EpochInterval: 500})
	o := Options{App: App("barnes"), Scheme: SparseDirectory(2), Scale: obsScale}
	o.Obs = rec
	m := Run(o).Metrics

	samples := rec.Epochs.Samples()
	if len(samples) < 4 {
		t.Fatalf("expected several epochs, got %d", len(samples))
	}
	if rec.Epochs.Dropped != 0 {
		t.Fatalf("ring dropped %d of %d epochs", rec.Epochs.Dropped, len(samples))
	}
	var sum EpochSample
	for _, e := range samples {
		sum.Cycles += e.Cycles
		sum.Retired += e.Retired
		sum.L1Hits += e.L1Hits
		sum.L2Hits += e.L2Hits
		sum.Misses += e.Misses
		sum.LLCAccesses += e.LLCAccesses
		sum.LLCMisses += e.LLCMisses
		sum.Lengthened += e.Lengthened
		sum.Nacks += e.Nacks
		sum.Retries += e.Retries
		sum.Forwards += e.Forwards
		sum.MemReads += e.MemReads
		for i := range sum.Traffic {
			sum.Traffic[i] += e.Traffic[i]
		}
		sum.DRAMReads += e.DRAMReads
		sum.DRAMWrites += e.DRAMWrites
	}
	check := func(name string, got, want uint64) {
		if got != want {
			t.Errorf("%s: epoch deltas sum to %d, aggregate is %d", name, got, want)
		}
	}
	check("retired", sum.Retired, uint64(obsScale.Cores)*uint64(obsScale.Refs))
	check("l1Hits", sum.L1Hits, m.L1Hits)
	check("l2Hits", sum.L2Hits, m.L2Hits)
	check("misses", sum.Misses, m.PrivateMisses)
	check("llcAccesses", sum.LLCAccesses, m.LLCAccesses)
	check("llcMisses", sum.LLCMisses, m.LLCMisses)
	check("lengthened", sum.Lengthened, m.LengthenedCode+m.LengthenedData)
	check("nacks", sum.Nacks, m.Nacks)
	check("retries", sum.Retries, m.Retries)
	check("forwards", sum.Forwards, m.Forwards)
	check("memReads", sum.MemReads, m.MemReads)
	for i := range sum.Traffic {
		check("traffic", sum.Traffic[i], m.TrafficBytes[i])
	}
	check("dramReads", sum.DRAMReads, m.DRAMReads)
	check("dramWrites", sum.DRAMWrites, m.DRAMWrites)
	// The final epoch closes at the drain cycle, which is at or after the
	// last core's retirement (writebacks still in flight).
	if last := samples[len(samples)-1].EndCycle; last < m.Cycles {
		t.Errorf("final epoch ends at %d, before execution time %d", last, m.Cycles)
	}
	if sum.Cycles != samples[len(samples)-1].EndCycle {
		t.Errorf("epoch cycle deltas sum to %d, want drain cycle %d", sum.Cycles, samples[len(samples)-1].EndCycle)
	}
}

// TestObsMetricsUnperturbed runs the same configuration bare and fully
// instrumented (epochs, histograms, trace, watchdog) and demands
// bit-identical Metrics: recording is pure observation.
func TestObsMetricsUnperturbed(t *testing.T) {
	o := obsGoldenOptions()
	bare := Run(o).Metrics

	o.Obs = NewObsRecorder(ObsConfig{
		EpochInterval:  1000,
		TraceSpans:     4000,
		WatchdogWindow: 10_000_000,
		StallOut:       io.Discard,
	})
	instrumented := Run(o).Metrics

	if !reflect.DeepEqual(bare, instrumented) {
		t.Fatalf("recorder perturbed the simulation:\nbare:         %+v\ninstrumented: %+v", bare, instrumented)
	}
}

// TestObsRaceSmoke drives a parallel instrumented sweep while a monitor
// goroutine polls the reporter and every active run's live IPC — the
// exact concurrent access pattern of `experiments -j N -http ...`. Run
// with -race in CI.
func TestObsRaceSmoke(t *testing.T) {
	s := NewSuite(Scale{Name: "obs-race", Cores: 8, Refs: 400})
	s.Workers = 4
	s.Obs = ObsConfig{
		EpochInterval:  500,
		WatchdogWindow: 10_000_000,
		StallOut:       io.Discard,
	}
	s.ObsDir = t.TempDir()
	mon := s.Monitor()

	stop := make(chan struct{})
	var polls atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				st := mon.Snapshot()
				for _, a := range st.Active {
					_ = a.IPC
				}
				polls.Add(1)
				time.Sleep(time.Millisecond)
			}
		}
	}()

	f := buildFigure(s, "7")
	close(stop)
	if len(f.Series) == 0 {
		t.Fatal("Fig7 produced no data")
	}
	st := mon.Snapshot()
	if st.Done == 0 || st.Done != st.Planned {
		t.Fatalf("monitor saw %d/%d runs done", st.Done, st.Planned)
	}
	if len(st.Active) != 0 {
		t.Fatalf("%d runs still active after the sweep", len(st.Active))
	}
	if polls.Load() == 0 {
		t.Fatal("monitor goroutine never polled")
	}
	ents, err := os.ReadDir(s.ObsDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("sweep wrote no obs artifacts (err=%v)", err)
	}
}
