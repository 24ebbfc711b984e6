package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary, which
// re-executes itself with -child to run each workload in its own process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeRun runs every workload at 8 cores and a few references and
// checks the output contract: each listed metric printed with its unit,
// a final result line per workload with no failures, and fail_frac 0.
// It returns each workload's printed digest.
func smokeRun(t *testing.T, s spec, trace bool) map[string]string {
	t.Helper()
	args := []string{"-smoke", "-seconds", "0", "-workdir", t.TempDir()}
	metrics := s.EndToEnd
	if trace {
		args = append(args, "--trace", "1")
		metrics = s.PerLayer
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	digests := map[string]string{}
	for _, w := range s.Workloads {
		for _, m := range metrics {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.Name+" "+m.Name) + ` -?[0-9.e+-]+ ` + regexp.QuoteMeta(m.Unit) + `( |$)`)
			if !re.MatchString(out) {
				t.Errorf("%s: metric %s with unit %s not printed", w.Name, m.Name, m.Unit)
			}
		}
		if !trace && !strings.Contains(out, w.Name+" fail_frac 0 fraction\n") {
			t.Errorf("%s: fail_frac is not 0", w.Name)
		}
		d := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.Name) + ` digest ([0-9a-f]{64})`).FindStringSubmatch(out)
		if d == nil {
			t.Fatalf("%s: no digest printed", w.Name)
		}
		digests[w.Name] = d[1]
	}
	var results int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		results++
		var r struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("result line %s", line)
		}
		if len(r.Metrics) != len(metrics) {
			t.Errorf("result line has %d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(metrics))
		}
		for _, m := range metrics {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("result line: metric %s = %+v, want unit %s", m.Name, got, m.Unit)
			}
		}
	}
	if results != len(s.Workloads) {
		t.Errorf("%d result lines for %d workloads", results, len(s.Workloads))
	}
	return digests
}

func TestSmoke(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q: %q", i, w.Name, workloads[i].name, workloads[i].why)
		}
	}
	first := smokeRun(t, s, false)
	second := smokeRun(t, s, false)
	for w, d := range first {
		if second[w] != d {
			t.Errorf("%s: digest %s, then %s", w, d, second[w])
		}
	}
	// The traced run fails a unit whose traced Metrics differ from the
	// untraced ones, so a clean traced run shows they are equal.
	smokeRun(t, s, true)
}

// TestFleetMatchesLocal checks that the fleet returns exactly the results
// the same units give when run locally.
func TestFleetMatchesLocal(t *testing.T) {
	w, _ := workloadByName("fleet-32")
	units := w.units(0, smokeSizes)
	fleetRuns, _, err := fleetPass(units, t.TempDir(), smokeSizes.fleet, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, l := digest(fleetRuns), digest(localPass(units)); f != l {
		t.Fatalf("fleet digest %s, local %s", f, l)
	}
}
