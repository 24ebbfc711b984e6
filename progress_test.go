package tinydir

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// atomicLineWriter records every Write it receives, so tests can assert
// that the reporter emits whole lines per Write (the property that keeps
// -j > 1 output un-interleaved).
type atomicLineWriter struct {
	mu     sync.Mutex
	writes []string
}

func (w *atomicLineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, string(p))
	w.mu.Unlock()
	return len(p), nil
}

// TestReporterLineAtomicity hammers one reporter from many goroutines and
// checks that every Write reaching the underlying writer is exactly one
// complete progress line — fragments of concurrent runs can never
// interleave.
func TestReporterLineAtomicity(t *testing.T) {
	w := &atomicLineWriter{}
	rep := NewReporter(w)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := strings.Repeat("x", g+1)
				rep.runStarted(name, "sparse-2x", nil)
				rep.runDone(name, "sparse-2x", true, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if len(w.writes) != 8*50*2 {
		t.Fatalf("got %d writes, want %d", len(w.writes), 8*50*2)
	}
	for _, s := range w.writes {
		if !strings.HasSuffix(s, "\n") || strings.Count(s, "\n") != 1 {
			t.Fatalf("write is not one complete line: %q", s)
		}
		if !strings.HasPrefix(s, "  running ") && !strings.HasPrefix(s, "  done    ") {
			t.Fatalf("unexpected progress line %q", s)
		}
	}
	st := rep.Snapshot()
	if st.Done != 8*50 {
		t.Fatalf("snapshot Done = %d, want %d", st.Done, 8*50)
	}
}

// TestReporterETAAndCounters checks the done-line bookkeeping: planned
// runs yield an "[done/planned eta ...]" suffix, unplanned ones fall back
// to "[n done]", and store-served runs are counted separately.
func TestReporterETAAndCounters(t *testing.T) {
	var buf bytes.Buffer
	rep := NewReporter(&buf)

	rep.runDone("barnes", "sparse-2x", true, time.Millisecond)
	if !strings.Contains(buf.String(), "[1 done]") {
		t.Fatalf("unplanned done line missing [1 done]: %q", buf.String())
	}

	rep.addPlanned(3)
	buf.Reset()
	rep.runDone("ocean", "sparse-2x", false, time.Millisecond)
	line := buf.String()
	if !strings.Contains(line, "[2/3 eta ") {
		t.Fatalf("planned done line missing [2/3 eta ...]: %q", line)
	}

	st := rep.Snapshot()
	if st.Planned != 3 || st.Done != 2 || st.Served != 1 {
		t.Fatalf("snapshot = %+v, want planned 3, done 2, served 1", st)
	}
	if st.ETA < 0 {
		t.Fatalf("negative ETA %v", st.ETA)
	}
}

// TestReporterETAIgnoresServedRuns pins the resume-ETA fix: store-served
// runs finish in ~0 wall time and must not count toward the throughput the
// ETA is derived from. Here 8 of 10 done runs were served and 2 executed
// over ~10s of sweep time, so the per-sim rate is ~5s and the 2 remaining
// runs should report an ETA near 10s. The old done-based rate said ~1s per
// run and an ETA near 2s.
func TestReporterETAIgnoresServedRuns(t *testing.T) {
	rep := NewReporter(nil)
	rep.addPlanned(12)
	rep.start = time.Now().Add(-10 * time.Second)
	for i := 0; i < 8; i++ {
		rep.runDone("warm", "sparse-2x", false, 0)
	}
	rep.runDone("cold", "sparse-2x", true, 5*time.Second)
	rep.runDone("cold2", "sparse-2x", true, 5*time.Second)

	rep.mu.Lock()
	eta, ok := rep.etaLocked()
	rep.mu.Unlock()
	if !ok {
		t.Fatal("no ETA with executed runs present")
	}
	if eta < 9*time.Second || eta > 11*time.Second {
		t.Fatalf("eta = %v, want ~10s (2 remaining x ~5s per executed sim)", eta)
	}
}

// TestReporterETAAllServed: a fully warm resume has executed nothing, so
// there is no throughput to extrapolate from — the reporter must decline
// to estimate instead of deriving a zero-rate ETA from served runs.
func TestReporterETAAllServed(t *testing.T) {
	rep := NewReporter(nil)
	rep.addPlanned(8)
	for i := 0; i < 4; i++ {
		rep.runDone("warm", "sparse-2x", false, 0)
	}
	rep.mu.Lock()
	_, ok := rep.etaLocked()
	rep.mu.Unlock()
	if ok {
		t.Fatal("ETA offered with zero executed sims")
	}
}

// TestReporterNilWriter checks that a reporter without an output sink
// still tracks counters (the -q + -http combination).
func TestReporterNilWriter(t *testing.T) {
	rep := NewReporter(nil)
	rep.addPlanned(1)
	rep.runStarted("barnes", "inllc", nil)
	rep.runDone("barnes", "inllc", true, time.Millisecond)
	if n, err := rep.Writer().Write([]byte("watchdog dump\n")); err != nil || n != 14 {
		t.Fatalf("locked writer on nil sink: n=%d err=%v", n, err)
	}
	st := rep.Snapshot()
	if st.Done != 1 || st.Planned != 1 {
		t.Fatalf("snapshot = %+v, want one planned, one done", st)
	}
}

// TestObsFileBase checks artifact-name sanitization: scheme spellings
// contain '/' (ratio names like "tiny-1/64x-dstra"), which must never
// become path separators.
func TestObsFileBase(t *testing.T) {
	base := obsFileBase("barnes", TinyDirectory(1.0/64, true, true), Scale{Name: "test", Cores: 8, Refs: 800})
	if strings.ContainsAny(base, "/|") {
		t.Fatalf("obsFileBase left separator characters in %q", base)
	}
	if want := "barnes_tiny-1-64x-dstra+gnru+dynspill_test"; base != want {
		t.Fatalf("obsFileBase = %q, want %q", base, want)
	}
	halved := obsFileBase("barnes", SparseDirectory(2), Scale{Name: "test", Cores: 8, Refs: 800, HalveHierarchy: true})
	if !strings.HasSuffix(halved, "_halved") {
		t.Fatalf("halved scale not reflected in %q", halved)
	}
	// Ablation variants differ from their reference only in a knob the
	// legend name omits; each still gets its own artifact name.
	sc := Scale{Name: "test", Cores: 8, Refs: 800}
	genlen := TinyDirectory(1.0/128, true, false)
	genlen.FixedGenLen = 16
	window := TinyDirectory(1.0/256, true, true)
	window.SpillWindow = 1024
	for _, c := range []struct {
		variant Scheme
		want    string
	}{
		{genlen, "barnes_tiny-1-128x-dstra+gnru-genlen16_test"},
		{window, "barnes_tiny-1-256x-dstra+gnru+dynspill-window1024_test"},
	} {
		if got := obsFileBase("barnes", c.variant, sc); got != c.want {
			t.Errorf("obsFileBase(%+v) = %q, want %q", c.variant, got, c.want)
		}
	}
}
