package tinydir

import (
	"strings"
	"testing"
)

func TestSchemeNames(t *testing.T) {
	cases := map[string]Scheme{
		"sparse-2x":                       SparseDirectory(2),
		"sparse-1/16x":                    SparseDirectory(1.0 / 16),
		"sharedonly-1/32x":                SharedOnlyDirectory(1.0/32, false),
		"sharedonly-skew-1/32x":           SharedOnlyDirectory(1.0/32, true),
		"inllc":                           InLLC(false),
		"inllc-tagext":                    InLLC(true),
		"tiny-1/128x-dstra":               TinyDirectory(1.0/128, false, false),
		"tiny-1/128x-dstra+gnru":          TinyDirectory(1.0/128, true, false),
		"tiny-1/128x-dstra+gnru+dynspill": TinyDirectory(1.0/128, true, true),
		"mgd-1/8x":                        MgD(1.0 / 8),
		"stash-1/32x":                     Stash(1.0 / 32),
	}
	for want, sch := range cases {
		if got := sch.String(); got != want {
			t.Errorf("Scheme.String() = %q, want %q", got, want)
		}
	}
}

func TestAppPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	App("no-such-app")
}

func TestRunAllSchemesAtTestScale(t *testing.T) {
	app := App("bodytrack")
	for _, sch := range []Scheme{
		SparseDirectory(2), SharedOnlyDirectory(1.0/16, false), InLLC(false),
		TinyDirectory(1.0/64, true, true), MgD(1.0 / 16), Stash(1.0 / 16),
	} {
		r := Run(Options{App: app, Scheme: sch, Scale: ScaleTest})
		if r.Metrics.Cycles == 0 || r.Metrics.LLCAccesses == 0 {
			t.Errorf("%s: empty metrics", sch)
		}
	}
}

func TestSuiteMemoizes(t *testing.T) {
	s := NewSuite(ScaleTest)
	f1 := buildFigure(s, "7") // needs the in-LLC run per app
	n := s.Runs()
	f2 := buildFigure(s, "6") // same runs
	if s.Runs() != n {
		t.Fatalf("Fig6 re-ran simulations: %d -> %d", n, s.Runs())
	}
	if len(f1.Series) != 1 || len(f2.Series) != 2 {
		t.Fatal("unexpected series counts")
	}
}

// buildFigure builds a table figure; the ids tests pass are literals, so
// an unknown one is a bug in the test.
func buildFigure(s *Suite, id string) Figure {
	f, err := s.FigureByID(id)
	if err != nil {
		panic(err)
	}
	return f
}

// Every table id and alias is unique and resolves to its own row, also
// behind a "fig" prefix and in any case; an unknown id errors.
func TestFigureByIDCoversAll(t *testing.T) {
	seen := map[string]bool{}
	for _, row := range figureTable {
		for _, key := range append([]string{row.id}, row.aliases...) {
			if seen[key] {
				t.Errorf("id %q appears twice in the figure table", key)
			}
			seen[key] = true
		}
		for _, id := range append([]string{row.id, "Fig" + row.id, strings.ToUpper(row.id)}, row.aliases...) {
			got, ok := lookupFigure(id)
			if !ok || got.id != row.id {
				t.Errorf("lookupFigure(%q) = %q, %v; want row %q", id, got.id, ok, row.id)
			}
		}
	}
	for _, id := range []string{"99", "", "fig", "FigTiny-1/16x", "FigLen-1/64x"} {
		if _, err := NewSuite(ScaleTest).FigureByID(id); err == nil {
			t.Errorf("FigureByID(%q) should fail", id)
		}
	}
}

func TestFigurePrinting(t *testing.T) {
	f := Figure{
		ID: "FigX", Title: "demo", Unit: "x",
		Cols: []string{"a", "b"},
		Series: []Series{
			{Name: "s1", Values: map[string]float64{"a": 1, "b": 3}},
		},
	}
	var sb strings.Builder
	f.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"FigX", "demo", "s1", "Average", "2.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed figure missing %q:\n%s", want, out)
		}
	}
	if f.Series[0].Avg(f.Cols) != 2 {
		t.Fatalf("Avg = %v", f.Series[0].Avg(f.Cols))
	}
}

// The headline result at test scale: the tiny directory with all policies
// must stay much closer to the 2x baseline than the raw in-LLC scheme on
// the sharing-heavy workload.
func TestHeadlineShapeAtTestScale(t *testing.T) {
	s := NewSuite(ScaleTest)
	app := App("barnes")
	inllc := s.run(app, InLLC(false)).Metrics
	tiny := s.run(app, TinyDirectory(1.0/64, true, true)).Metrics
	if inllc.LengthenedFrac() <= tiny.LengthenedFrac() {
		t.Fatalf("tiny (%.3f) did not reduce lengthened accesses vs in-LLC (%.3f)",
			tiny.LengthenedFrac(), inllc.LengthenedFrac())
	}
}

// The spill observation window must scale with short traces (the late
// defaulting logic in Run): a tiny+spill run at test scale must actually
// adapt its threshold (spills happen), which requires windows to elapse.
func TestSpillWindowScalesWithTraceLength(t *testing.T) {
	r := Run(Options{
		App:    App("barnes"),
		Scheme: TinyDirectory(1.0/256, true, true),
		Scale:  ScaleTest,
	})
	if r.Metrics.Tracker["tiny.spills"] == 0 {
		t.Fatal("no spills at test scale: the window default did not scale")
	}
	// An explicit window is honored verbatim: with a never-elapsing
	// window the threshold index stays pinned at its initial 7 in every
	// bank, while the scaled default lets at least one bank descend.
	sch := TinyDirectory(1.0/256, true, true)
	sch.SpillWindow = 1 << 40
	r2 := Run(Options{App: App("barnes"), Scheme: sch, Scale: ScaleTest})
	banks := uint64(8)
	if got := r2.Metrics.Tracker["tiny.spillIdxSum"]; got != 7*banks {
		t.Fatalf("pinned threshold sum %d, want %d", got, 7*banks)
	}
	if got := r.Metrics.Tracker["tiny.spillIdxSum"]; got >= 7*banks {
		t.Fatalf("scaled window never adapted any bank: sum %d", got)
	}
}

// Scales must preserve the Table I capacity ratios (LLC blocks = 2x
// aggregate L2 blocks) at every size.
func TestScalesPreserveRatios(t *testing.T) {
	for _, sc := range []Scale{ScaleTest, ScaleExperiment, ScaleFull} {
		cfg := sc.machine()
		l2 := cfg.L2Sets * cfg.L2Ways
		llc := cfg.LLCSets * cfg.LLCWays
		if llc != 2*l2 {
			t.Errorf("%s: LLC blocks per bank %d != 2x L2 blocks %d", sc.Name, llc, l2)
		}
	}
	halved := Scale{Name: "h", Cores: 32, Refs: 100, HalveHierarchy: true}
	cfg := halved.machine()
	base := ScaleExperiment.machine()
	if cfg.LLCSets*2 != base.LLCSets || cfg.L2Sets*2 != base.L2Sets {
		t.Error("HalveHierarchy did not halve set counts")
	}
}

func TestEntryFormatSchemes(t *testing.T) {
	r := Run(Options{
		App:    App("TPC-C"),
		Scheme: SparseDirectoryWithFormat(1, "coarse8"),
		Scale:  ScaleTest,
	})
	if r.Scheme != "sparse-1x-coarse8" {
		t.Fatalf("scheme name %q", r.Scheme)
	}
	if r.Metrics.Tracker["dir.format.inflatedSharers"] == 0 {
		t.Fatal("coarse format never inflated a sharer set")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad format should panic")
		}
	}()
	Run(Options{App: App("TPC-C"), Scheme: SparseDirectoryWithFormat(1, "bogus"), Scale: ScaleTest})
}
