package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"tinydir/internal/sim"
)

func TestHistBucketsAndQuantiles(t *testing.T) {
	var h Hist
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty hist quantile = %d, want 0", got)
	}
	if h.Mean() != 0 {
		t.Fatalf("empty hist mean = %v, want 0", h.Mean())
	}

	// 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4..7 → bucket 3.
	for _, v := range []uint64{0, 1, 2, 3, 4, 7} {
		h.Observe(v)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 2}
	for i, n := range want {
		if h.Buckets[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], n)
		}
	}
	if h.Count != 6 || h.Sum != 17 || h.Max != 7 {
		t.Fatalf("count/sum/max = %d/%d/%d, want 6/17/7", h.Count, h.Sum, h.Max)
	}
	// Median (rank 3) lands in bucket 2, upper bound 3.
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("p50 = %d, want 3", got)
	}
	// Tail quantiles land in the last bucket; its bound (7) equals Max.
	if got := h.Quantile(0.99); got != 7 {
		t.Errorf("p99 = %d, want 7", got)
	}
}

func TestHistQuantileClampsToMax(t *testing.T) {
	var h Hist
	h.Observe(1000) // bucket 10: [512,1023]
	if got := h.Quantile(0.99); got != 1000 {
		t.Fatalf("p99 = %d, want exact max 1000", got)
	}
}

// TestHistQuantileOneSample: for a single sample every quantile IS that
// sample — never the log2 bucket bound above it (which for 1000 would be
// 1023) and never 0.
func TestHistQuantileOneSample(t *testing.T) {
	var h Hist
	h.Observe(1000)
	for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 1000 {
			t.Errorf("q=%v = %d, want 1000", q, got)
		}
	}
}

// TestHistQuantileAllSameBucket: when every sample lands in one bucket,
// derived percentiles must clamp to the observed max (1000), not report
// the bucket upper bound (1023).
func TestHistQuantileAllSameBucket(t *testing.T) {
	var h Hist
	for i := 0; i < 5; i++ {
		h.Observe(1000) // all in bucket 10: [512,1023]
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := h.Quantile(q); got != 1000 {
			t.Errorf("q=%v = %d, want clamped max 1000", q, got)
		}
	}
}

// TestHistQuantileNearestRank pins the ⌈q·N⌉ nearest-rank rule. The old
// floor-based rank dropped the tail sample: p99 of ten samples selected
// rank 9 (floor 9.9) instead of 10, reporting 1 for a distribution whose
// true p99 is the 2^20 outlier.
func TestHistQuantileNearestRank(t *testing.T) {
	var h Hist
	for i := 0; i < 9; i++ {
		h.Observe(1)
	}
	h.Observe(1 << 20)
	if got := h.Quantile(0.99); got != 1<<20 {
		t.Errorf("p99 = %d, want %d (nearest rank 10 of 10)", got, uint64(1)<<20)
	}
	// Float-representation slop: 0.7*10 is 6.999…96 in float64; the rank
	// must still be ceil(7) = 7, not 6. The 7th sorted sample of
	// {1,2,2,4,4,4,8,8,8,8} is 8 (bucket cums 1,3,6,10).
	var g Hist
	for _, v := range []uint64{1, 2, 2, 4, 4, 4, 8, 8, 8, 8} {
		g.Observe(v)
	}
	if got := g.Quantile(0.7); got != 8 {
		t.Errorf("p70 = %d, want 8 (rank 7 lands in bucket [8,15], clamped to max 8)", got)
	}
	// And the other direction: 0.95*20 floats to 19.000…013; ceiling with
	// slop must keep rank 19, not jump to 20. 19th of twenty ones plus a
	// big outlier is still 1.
	var k Hist
	for i := 0; i < 19; i++ {
		k.Observe(1)
	}
	k.Observe(1 << 20)
	if got := k.Quantile(0.95); got != 1 {
		t.Errorf("p95 = %d, want 1 (rank 19 of 20)", got)
	}
}

func TestLatencyRecorderDumps(t *testing.T) {
	var l LatencyRecorder
	l.Record(LatL1Hit, 4)
	l.Record(LatL1Hit, 4)
	l.Record(LatDRAM, 300)
	if l.Class[LatL1Hit].Count != 2 || l.Class[LatDRAM].Count != 1 {
		t.Fatalf("class counts l1-hit=%d fill-dram=%d, want 2/1", l.Class[LatL1Hit].Count, l.Class[LatDRAM].Count)
	}

	var txt bytes.Buffer
	if err := l.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"l1-hit", "count=2", "fill-dram", "max=300"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text dump missing %q:\n%s", want, txt.String())
		}
	}
	if strings.Contains(txt.String(), "fwd-3hop") {
		t.Errorf("text dump includes empty class:\n%s", txt.String())
	}
}

func cumSample(cycle, retired, l1 uint64) EpochSample {
	return EpochSample{EndCycle: cycle, Retired: retired, L1Hits: l1}
}

func TestEpochSamplerDeltas(t *testing.T) {
	e := newEpochSampler(100, 8)
	e.Observe(cumSample(100, 10, 5))
	e.Observe(cumSample(200, 30, 9))
	e.Observe(cumSample(200, 30, 9)) // no progress: skipped
	s := e.Samples()
	if len(s) != 2 {
		t.Fatalf("samples = %d, want 2", len(s))
	}
	if s[0].Retired != 10 || s[0].Cycles != 100 || s[0].Index != 0 {
		t.Errorf("epoch 0 = %+v", s[0])
	}
	if s[1].Retired != 20 || s[1].L1Hits != 4 || s[1].Cycles != 100 || s[1].Index != 1 {
		t.Errorf("epoch 1 = %+v", s[1])
	}
	if got := s[1].IPC(); got != 0.2 {
		t.Errorf("epoch 1 IPC = %v, want 0.2", got)
	}
	if got := e.LatestIPC(); got != 0.2 {
		t.Errorf("latest IPC = %v, want 0.2", got)
	}
}

func TestEpochRingDropsOldest(t *testing.T) {
	e := newEpochSampler(10, 2)
	e.Observe(cumSample(10, 1, 0))
	e.Observe(cumSample(20, 2, 0))
	e.Observe(cumSample(30, 3, 0))
	s := e.Samples()
	if len(s) != 2 || e.Dropped != 1 {
		t.Fatalf("samples=%d dropped=%d, want 2/1", len(s), e.Dropped)
	}
	if s[0].Index != 1 || s[1].Index != 2 {
		t.Fatalf("retained epochs %d,%d, want 1,2", s[0].Index, s[1].Index)
	}
}

func TestEpochCSVShape(t *testing.T) {
	e := newEpochSampler(100, 8)
	e.Observe(cumSample(100, 10, 5))
	var buf bytes.Buffer
	if err := e.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want header + 1 row:\n%s", len(lines), buf.String())
	}
	head, row := strings.Split(lines[0], ","), strings.Split(lines[1], ",")
	if len(head) != len(row) {
		t.Fatalf("header has %d columns, row has %d:\n%s", len(head), len(row), buf.String())
	}
	for i, col := range head {
		if col == "retired" && row[i] != "10" {
			t.Fatalf("retired column = %q, want 10:\n%s", row[i], buf.String())
		}
	}
}

func TestTraceWriterBoundsAndJSON(t *testing.T) {
	tw := newTraceWriter(2)
	tw.Add(CatCore, "fill-2hop", 3, 100, 40, 0x80)
	tw.Add(CatBank, "GetS", 1, 110, 20, 0x80)
	tw.Add(CatMesh, "hop", 0, 100, 6, 0) // over budget: dropped
	if len(tw.spans) != 2 || tw.Dropped != 1 {
		t.Fatalf("spans=%d dropped=%d, want 2/1", len(tw.spans), tw.Dropped)
	}
	var buf bytes.Buffer
	if err := tw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]any   `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if doc.OtherData["dropped"].(float64) != 1 {
		t.Errorf("dropped = %v, want 1", doc.OtherData["dropped"])
	}
	// 4 process_name metadata records + 2 spans.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("traceEvents = %d, want 6", len(doc.TraceEvents))
	}
	last := doc.TraceEvents[5]
	if last["name"] != "GetS" || last["ph"] != "X" || last["dur"].(float64) != 20 {
		t.Errorf("span = %v", last)
	}
}

func TestTraceWriterEmptyIsValidJSON(t *testing.T) {
	tw := newTraceWriter(4)
	var buf bytes.Buffer
	if err := tw.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace JSON does not parse: %v\n%s", err, buf.String())
	}
}

func TestWatchdogFiresOncePerEpisodeAndRearms(t *testing.T) {
	var out bytes.Buffer
	w := newWatchdog(100, &out)
	dumps := 0
	w.Dump = func(io.Writer) { dumps++ }

	w.OnStep(sim.Time(50), watchdogEvery) // below window: quiet
	if w.Fired != 0 {
		t.Fatalf("fired below window")
	}
	w.OnStep(sim.Time(150), 1) // past window, but off-cadence event: no check
	if w.Fired != 0 {
		t.Fatalf("fired on unmasked step")
	}
	w.OnStep(sim.Time(150), 2*watchdogEvery) // past window: fires
	w.OnStep(sim.Time(250), 3*watchdogEvery) // same episode: no refire
	if w.Fired != 1 || dumps != 1 {
		t.Fatalf("fired=%d dumps=%d, want 1/1", w.Fired, dumps)
	}
	w.Pet(260) // retirement re-arms
	w.OnStep(sim.Time(300), 4*watchdogEvery)
	if w.Fired != 1 {
		t.Fatalf("fired within window after re-arm")
	}
	w.OnStep(sim.Time(400), 5*watchdogEvery)
	if w.Fired != 2 || dumps != 2 {
		t.Fatalf("fired=%d dumps=%d, want 2/2", w.Fired, dumps)
	}
	if !strings.Contains(out.String(), "watchdog: no retirement for") {
		t.Fatalf("missing header:\n%s", out.String())
	}
}

func TestNewRecorderNilWhenDisabled(t *testing.T) {
	if r := NewRecorder(Config{}); r != nil {
		t.Fatalf("zero config recorder = %v, want nil", r)
	}
	r := NewRecorder(Config{EpochInterval: 100})
	if r == nil || r.Epochs == nil || r.Trace != nil || r.Watchdog != nil {
		t.Fatalf("recorder = %+v", r)
	}
	r = NewRecorder(Config{TraceSpans: 10, WatchdogWindow: 5})
	if r.Epochs != nil || r.Trace == nil || r.Watchdog == nil {
		t.Fatalf("recorder = %+v", r)
	}
}

// TestEpochSampleDerivationsZero pins the per-epoch rate helpers on a
// no-activity sample: 0, never NaN — CSV emission formats them blindly.
func TestEpochSampleDerivationsZero(t *testing.T) {
	var e EpochSample
	if got := e.IPC(); got != 0 {
		t.Errorf("IPC on zero sample = %v, want 0", got)
	}
	if got := e.LLCMissRate(); got != 0 {
		t.Errorf("LLCMissRate on zero sample = %v, want 0", got)
	}
	if got := e.LengthenedFrac(); got != 0 {
		t.Errorf("LengthenedFrac on zero sample = %v, want 0", got)
	}
}

// TestEpochSampleDerivations checks the helpers on hand-computable input.
func TestEpochSampleDerivations(t *testing.T) {
	e := EpochSample{Cycles: 1000, Retired: 500, LLCAccesses: 200, LLCMisses: 50, Lengthened: 20}
	if got := e.IPC(); got != 0.5 {
		t.Errorf("IPC = %v, want 0.5", got)
	}
	if got := e.LLCMissRate(); got != 0.25 {
		t.Errorf("LLCMissRate = %v, want 0.25", got)
	}
	if got := e.LengthenedFrac(); got != 0.1 {
		t.Errorf("LengthenedFrac = %v, want 0.1", got)
	}
}
