package tinydir

// The distributed sweep service glue: tinydir-level wiring between the
// figure Suite, the content-addressed RunStore, and the generic
// coordinator/worker machinery in internal/sweepd.
//
// A distributed sweep is the local sweep with the prefetch pool swapped
// for a fleet: the coordinator plans figures exactly as `-j N` does, but
// every planned run becomes a work unit (its store key + its normalized
// Options as JSON) served to pull-based workers over HTTP. Workers run
// units through the identical guarded path (Suite.attempt) — panic
// guard, deadlines and fault config intact — against the coordinator's
// store via the HTTP blob backend, so results dedup exactly; the
// coordinator merges each returned Result through the store's collision
// guard and assembles figures from the same serial pass as ever.
// Determinism is the acceptance bar: the figure CSVs are byte-identical
// to a single-process run (see TestDistributedSweepByteIdentical and the
// CI smoke job).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"time"

	"tinydir/internal/runstore"
	"tinydir/internal/sweepd"
)

// wireOptions is the JSON form of Options shipped to workers. Obs is
// per-process state (never serialized) and Trace-driven runs are
// local-only (shipping whole traces is a different protocol), so both
// are excluded; figure sweeps use neither.
type wireOptions struct {
	App       Profile       `json:"app"`
	Scheme    Scheme        `json:"scheme"`
	Scale     Scale         `json:"scale"`
	MaxEvents uint64        `json:"maxEvents,omitempty"`
	FaultRate float64       `json:"faultRate,omitempty"`
	FaultSeed uint64        `json:"faultSeed,omitempty"`
	Timeout   time.Duration `json:"timeoutNs,omitempty"`
}

// wireResult is a completed unit's payload back to the coordinator.
type wireResult struct {
	Result    Result `json:"result"`
	Simulated bool   `json:"simulated"`
}

// encodeUnit serializes a run's options as a work-unit payload.
func encodeUnit(o Options) ([]byte, error) {
	if o.Trace != nil {
		return nil, fmt.Errorf("tinydir: trace-driven runs cannot be dispatched to a fleet (replay them locally)")
	}
	return json.Marshal(wireOptions{
		App: o.App, Scheme: o.Scheme, Scale: o.Scale,
		MaxEvents: o.MaxEvents, FaultRate: o.FaultRate, FaultSeed: o.FaultSeed,
		Timeout: o.Timeout,
	})
}

// decodeUnit reconstructs a worker-side Options from a unit payload.
// The JSON round trip is exact for every field entering the store key
// (uint64 counters, float64 profile parameters), so the worker computes
// the same content hash the coordinator filed the unit under.
func decodeUnit(payload []byte) (Options, error) {
	var w wireOptions
	if err := json.Unmarshal(payload, &w); err != nil {
		return Options{}, fmt.Errorf("tinydir: bad work unit: %w", err)
	}
	return Options{
		App: w.App, Scheme: w.Scheme, Scale: w.Scale,
		MaxEvents: w.MaxEvents, FaultRate: w.FaultRate, FaultSeed: w.FaultSeed,
		Timeout: w.Timeout,
	}, nil
}

// SweepService is a Suite wired to serve its runs to a worker fleet.
type SweepService struct {
	Coord   *sweepd.Coordinator
	store   *RunStore
	suite   *Suite
	tempDir string // journal directory Close removes ("" = caller-owned)
}

// SweepServiceConfig tunes AttachSweepServiceCfg.
type SweepServiceConfig struct {
	// JournalDir is where the coordinator journals every unit lifecycle
	// transition (internal/sweepd's WAL); a coordinator restarted on the
	// same directory recovers its exact queue/lease/done state under a
	// bumped fencing epoch. Empty means a fresh temporary directory that
	// Close removes: the sweep is journaled all the same, it just cannot
	// be resumed by a later process.
	JournalDir string
}

// AttachSweepServiceCfg turns a suite into a sweep coordinator: it
// mounts the work-unit API under /sweepd/ and the shared blob store
// under /store/ on mux, and installs a Suite.Dispatch that enqueues
// every planned run as a work unit and blocks until a worker completes
// it. The store must be the coordinator's durable (directory) store —
// it is both the dedup cache workers share over HTTP and the merge
// target for returned results. Workers are served the layer beneath
// its integrity wrapper, so they read and write sealed entries and
// check the seals themselves. The coordinator is recovered from (or
// initialized in) cfg.JournalDir, so restarting the process on the same
// directory resumes the sweep where it died, fencing the previous
// incarnation's stale traffic by epoch.
func AttachSweepServiceCfg(s *Suite, store *RunStore, mux *http.ServeMux, cfg SweepServiceConfig) (*SweepService, error) {
	dir, tempDir := cfg.JournalDir, ""
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "tinydir-journal-"); err != nil {
			return nil, fmt.Errorf("tinydir: sweep journal: %w", err)
		}
		tempDir = dir
	}
	coord, err := sweepd.RecoverCoordinator(dir)
	if err != nil {
		if tempDir != "" {
			os.RemoveAll(tempDir)
		}
		return nil, fmt.Errorf("tinydir: sweep journal: %w", err)
	}
	svc := &SweepService{Coord: coord, store: store, suite: s, tempDir: tempDir}
	mux.Handle("/sweepd/", http.StripPrefix("/sweepd", svc.Coord.Handler()))
	mux.Handle("/store/", http.StripPrefix("/store", runstore.NewServer(store.served())))
	s.Dispatch = svc.dispatch
	return svc, nil
}

// Close shuts the coordinator down (pending dispatches unblock; workers'
// next claim reports the sweep over) and removes a temporary journal.
func (svc *SweepService) Close() {
	svc.Coord.Close()
	if svc.tempDir != "" {
		os.RemoveAll(svc.tempDir)
	}
}

// dispatch is the Suite.Dispatch implementation: dedup against the
// store, enqueue, wait, merge through the collision guard.
func (svc *SweepService) dispatch(o Options) (Result, bool, error) {
	o = normalizeOptions(o)
	key := runKey(o)
	if svc.suite.Resume {
		if r, ok, err := svc.store.GetResult(key); err == nil && ok {
			return r, false, nil
		}
	}
	payload, err := encodeUnit(o)
	if err != nil {
		return Result{}, false, err
	}
	b, err := svc.Coord.Do(sweepd.Unit{Key: key, Payload: payload})
	if err != nil {
		return Result{}, false, err
	}
	var wr wireResult
	if err := json.Unmarshal(b, &wr); err != nil {
		return Result{}, false, fmt.Errorf("tinydir: bad worker result for %s: %w", key, err)
	}
	// Merge through the collision guard. The worker already wrote the
	// result into the shared store over the HTTP backend, so this is
	// normally an idempotent byte-compare; a mismatch means a
	// nondeterministic worker (or a key collision) and fails the run
	// loudly rather than corrupting the merged store.
	if err := svc.store.PutResult(key, wr.Result); err != nil {
		return Result{}, false, err
	}
	return wr.Result, wr.Simulated, nil
}

// WorkerConfig configures one fleet worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (the address of its
	// -http listener), e.g. "http://lab-box:6060".
	Coordinator string
	// Name identifies the worker in leases and on the dashboard
	// (default: host-pid).
	Name string
	// CacheBytes sizes the in-memory LRU tier over the coordinator's
	// HTTP store (0 = no local tier; every lookup is a round trip).
	CacheBytes int64
	// RunTimeout bounds each unit's wall clock like Suite.RunTimeout;
	// a blown deadline is reported as the unit's failure.
	RunTimeout time.Duration
}

// RunSweepWorker joins a coordinator's fleet and executes claimed units
// until the sweep completes (returns nil), ctx is cancelled, or the
// coordinator stays unreachable. Each unit runs through the same guarded
// path as a local sweep's runs — panics and wall-clock deadlines fail
// the unit with the message a local quarantine records — against the
// coordinator's store mounted over HTTP.
func RunSweepWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Coordinator == "" {
		return fmt.Errorf("tinydir: worker needs a coordinator URL")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var backend runstore.Backend = runstore.NewClient(cfg.Coordinator + "/store")
	// The worker always carries self-telemetry: its report rides the
	// claim/heartbeat requests it makes anyway, giving the coordinator's
	// fleet-health table per-worker latencies without scraping workers.
	tel := sweepd.NewWorkerTelemetry()
	if cfg.CacheBytes > 0 {
		lru := runstore.NewLRU(backend, cfg.CacheBytes)
		tel.StoreStats = lru.Counters
		backend = lru
	}
	// The integrity layer sits outermost so the worker seals what it
	// writes and even locally-cached bytes verify on every read. A
	// corrupt entry it trips over is logged at warn, and its quarantine
	// copy lands in the coordinator's store for post-mortem.
	store := NewRunStoreWithBackend(runstore.NewVerified(backend))
	// Units run exactly as a local sweep's runs do: through Suite.attempt,
	// under the panic guard and the deadline, with resume semantics (an
	// already-stored result is served, not re-simulated: exact dedup is
	// the point of the shared store).
	local := &Suite{Store: store, Resume: true, RunTimeout: cfg.RunTimeout}
	w := &sweepd.Worker{
		Base: cfg.Coordinator + "/sweepd",
		Name: cfg.Name,
		Tel:  tel,
		Run: func(key string, payload []byte) ([]byte, error) {
			o, err := decodeUnit(payload)
			if err != nil {
				return nil, err
			}
			r, simulated, err := local.attempt(o)
			if err != nil {
				// The coordinator hears the message; a caught panic's
				// post-mortem stays in this worker's log.
				var p *runPanic
				if errors.As(err, &p) {
					slog.Error("unit post-mortem", "unit", key, "worker", cfg.Name,
						"dump", p.dump, "stack", string(p.stack))
				}
				return nil, err
			}
			return json.Marshal(wireResult{Result: r, Simulated: simulated})
		},
	}
	err := w.Loop(ctx)
	if errors.Is(err, context.Canceled) {
		return nil // a signalled worker exiting cleanly is not an error
	}
	return err
}
