package tinydir

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// The parallel harness guarantee (cmd/experiments -j): every simulation
// is fully isolated — its own event engine, trace generator and metric
// sinks — so results are a pure function of Options and figure output is
// bit-identical at any worker count. These tests pin that guarantee.

// detScale keeps the determinism runs cheap: identity, not statistics,
// is under test.
var detScale = Scale{Name: "det", Cores: 8, Refs: 600}

// TestRunDeterminism: the same Options must produce identical Results,
// down to every metric and tracker counter.
func TestRunDeterminism(t *testing.T) {
	o := Options{App: App("barnes"), Scheme: TinyDirectory(1.0/64, true, true), Scale: detScale}
	a, b := Run(o), Run(o)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same Options diverged:\n%+v\n%+v", a, b)
	}
}

// TestSuiteParallelBitIdentical: a Suite rendering figures through the
// parallel prefetch path must emit byte-for-byte the output of a serial
// suite — the property behind cmd/experiments' -j flag.
func TestSuiteParallelBitIdentical(t *testing.T) {
	render := func(workers int) []byte {
		s := NewSuite(detScale)
		s.Workers = workers
		var buf bytes.Buffer
		for _, f := range []Figure{buildFigure(s, "6"), buildFigure(s, "11")} {
			f.Fprint(&buf)
			if err := f.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("figure output differs between -j 1 and -j 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestTrackerDumpDeterministic: the tracker-counter dump consumed by
// cmd/tinysim (and any metric sink walking Metrics.Tracker) must render
// identically across runs — Metrics.Tracker is a Go map, so any consumer
// iterating it raw would be at the mercy of map iteration order. The
// SortedTrackerKeys helper is the pinned contract: sorted, complete, and
// stable from run to run.
func TestTrackerDumpDeterministic(t *testing.T) {
	o := Options{App: App("barnes"), Scheme: TinyDirectory(1.0/64, true, true), Scale: detScale}
	render := func() string {
		m := Run(o).Metrics
		var buf bytes.Buffer
		for _, k := range SortedTrackerKeys(m.Tracker) {
			fmt.Fprintf(&buf, "%s=%d\n", k, m.Tracker[k])
		}
		return buf.String()
	}
	a, b := render(), render()
	if a == "" {
		t.Fatal("tracker dump is empty: no counters rendered")
	}
	if a != b {
		t.Fatalf("tracker dump diverged between identical runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	keys := SortedTrackerKeys(Run(o).Metrics.Tracker)
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("SortedTrackerKeys returned unsorted keys: %v", keys)
	}
}
