package tinydir

// One benchmark per figure of the paper's evaluation. Each benchmark
// regenerates its figure's data series through the same code path as
// cmd/experiments (Suite memoizes runs, so repeated b.N iterations after
// the first are cheap and the reported ns/op of the first run reflects
// the real simulation cost). Benchmarks run at ScaleTest so `go test
// -bench=.` completes quickly; use cmd/experiments for the paper-scale
// tables.

import (
	"sync"
	"testing"
)

var (
	benchSuiteOnce sync.Once
	benchSuite     *Suite
)

func suiteForBench() *Suite {
	benchSuiteOnce.Do(func() { benchSuite = NewSuite(ScaleTest) })
	return benchSuite
}

// BenchmarkFigure has one sub-benchmark per figure-table id, so
// `go test -bench 'Figure/^10$'` regenerates Fig. 10 alone.
func BenchmarkFigure(b *testing.B) {
	s := suiteForBench()
	for _, id := range FigureIDs(true) {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := s.FigureByID(id)
				if err != nil {
					b.Fatal(err)
				}
				if len(f.Series) == 0 || len(f.Cols) == 0 {
					b.Fatalf("%s produced no data", f.ID)
				}
				for _, se := range f.Series {
					if len(se.Values) == 0 {
						b.Fatalf("%s series %s empty", f.ID, se.Name)
					}
				}
			}
		})
	}
}

// benchRunAll measures the worker-pool layer over a fixed batch of
// independent simulations; compare the serial and parallel variants to
// see the harness speedup on a multi-core host.
func benchRunAll(b *testing.B, workers int) {
	var opts []Options
	for _, app := range []string{"barnes", "TPC-C", "bodytrack", "ocean_cp"} {
		for _, sch := range []Scheme{SparseDirectory(2), InLLC(false)} {
			opts = append(opts, Options{App: App(app), Scheme: sch, Scale: ScaleTest})
		}
	}
	for i := 0; i < b.N; i++ {
		for _, r := range RunAll(opts, workers) {
			if r.Metrics.Cycles == 0 {
				b.Fatal("empty run")
			}
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B)   { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }

// BenchmarkSingleRun measures one raw simulation (Table I machine at test
// scale) — the cost unit behind every figure.
func BenchmarkSingleRun(b *testing.B) {
	app := App("bodytrack")
	for i := 0; i < b.N; i++ {
		r := Run(Options{App: app, Scheme: SparseDirectory(2), Scale: ScaleTest})
		if r.Metrics.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
}
