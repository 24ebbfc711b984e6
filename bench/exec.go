package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tinydir"
	"tinydir/internal/runstore"
)

// unitRun is one execution of one unit of a workload's list.
type unitRun struct {
	unit int // index into the unit list; a store pass runs each index twice
	dur  time.Duration
	res  tinydir.Result
	js   []byte // res as JSON, nil when the unit failed
	err  string
}

// guarded runs fn, turning a panic into an error.
func guarded(fn func() (tinydir.Result, error)) (r tinydir.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	return fn()
}

// timeUnit runs one unit through fn and records it.
func timeUnit(i int, fn func() (tinydir.Result, error)) unitRun {
	start := time.Now()
	r, err := guarded(fn)
	u := unitRun{unit: i, dur: time.Since(start), res: r}
	if err == nil {
		u.js, err = json.Marshal(r)
	}
	if err != nil {
		u.err = err.Error()
		u.js = nil
	}
	return u
}

// digest is the sha256 over the ordered Result JSONs of one pass.
func digest(runs []unitRun) string {
	h := sha256.New()
	for _, r := range runs {
		h.Write(r.js)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// localPass runs every unit serially through tinydir.Run.
func localPass(units []tinydir.Options) []unitRun {
	runs := make([]unitRun, len(units))
	for i, o := range units {
		runs[i] = timeUnit(i, func() (tinydir.Result, error) { return tinydir.Run(o), nil })
	}
	return runs
}

// storePass runs every unit cold on a fresh directory store at dir, then
// deletes results/ and runs every unit again, fast-forwarding from the
// warmup checkpoints the cold pass left. The store is removed afterwards.
func storePass(units []tinydir.Options, dir string) ([]unitRun, error) {
	st, err := tinydir.NewRunStore(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	runs := make([]unitRun, 0, 2*len(units))
	for i, o := range units {
		runs = append(runs, timeUnit(i, func() (tinydir.Result, error) { return tinydir.RunWithStore(o, st, false), nil }))
	}
	if err := os.RemoveAll(filepath.Join(dir, runstore.KindResults)); err != nil {
		return nil, err
	}
	for i, o := range units {
		runs = append(runs, timeUnit(i, func() (tinydir.Result, error) { return tinydir.RunWithStore(o, st, false), nil }))
	}
	return runs, nil
}

// dispatchers is how many goroutines call Suite.Dispatch at once. With
// more dispatched units than workers the queue never runs empty between
// units, so the worker never sleeps through its 500 ms idle poll.
const dispatchers = 4

// fleetPass runs units through a fresh fleet in dir: a journaled sweep
// coordinator with its directory store, served over loopback HTTP, that
// one worker with a 64 MiB store cache joins. It returns each unit's
// dispatch latency and the wall time from the first dispatch to the last
// result. With ft set the coordinator's HTTP API is timed and ft receives
// the coordinator's final status.
func fleetPass(units []tinydir.Options, dir string, sc tinydir.Scale, ft *fleetTrace) ([]unitRun, time.Duration, error) {
	defer os.RemoveAll(dir)
	store, err := tinydir.NewRunStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, 0, err
	}
	suite := tinydir.NewSuite(sc)
	mux := http.NewServeMux()
	svc, err := tinydir.AttachSweepServiceCfg(suite, store, mux, tinydir.SweepServiceConfig{JournalDir: filepath.Join(dir, "journal")})
	if err != nil {
		return nil, 0, err
	}
	defer svc.Close()
	var h http.Handler = mux
	if ft != nil {
		h = ft.wrap(mux)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	runs := make([]unitRun, len(units))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for d := 0; d < dispatchers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				if ft != nil {
					ft.dispatched(i)
				}
				runs[i] = timeUnit(i, func() (tinydir.Result, error) {
					r, _, err := suite.Dispatch(units[i])
					return r, err
				})
			}
		}()
	}
	// The worker joins once the queue holds work; one that finds it empty
	// sleeps through a whole idle poll.
	for svc.Coord.Status().Pending < min(dispatchers, len(units)) {
		time.Sleep(50 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	werr := make(chan error, 1)
	go func() {
		werr <- tinydir.RunSweepWorker(ctx, tinydir.WorkerConfig{
			Coordinator: srv.URL, Name: "bench-worker", CacheBytes: 64 << 20,
		})
	}()
	wg.Wait()
	wall := time.Since(start)
	if ft != nil {
		ft.status = svc.Coord.Status()
	}
	cancel()
	return runs, wall, <-werr
}
