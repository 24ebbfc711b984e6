package tinydir

// Persistent content-addressed run store. Each simulation is addressed by a
// key derived from everything that determines its outcome: the normalized
// Options (application profile, scheme, scale, event budget) plus the store
// format version, so a code change that alters the result layout
// invalidates old entries instead of mixing with them.
//
// The store holds one artifact kind (see internal/runstore for the blob
// layer; the default directory backend keeps the original layout):
//
//	results/<key>.json      — the finished Result (resumable sweeps)
//
// Writes are atomic (temp file + rename, or the HTTP protocol's buffered
// PUT) so a killed sweep never leaves a truncated artifact behind, and
// PutResult refuses to overwrite an existing result with different bytes —
// a key collision or a nondeterministic run is a bug worth a loud failure,
// not a silent cache corruption. Artifact placement is pluggable: the
// store runs over any runstore.Backend — the local directory, an
// in-memory LRU tier, or the HTTP blob client a sweep worker points at
// its coordinator.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"tinydir/internal/fault"
	"tinydir/internal/runstore"
	"tinydir/internal/system"
	"tinydir/internal/trace"
)

// storeFormatVersion invalidates stored results when the Result layout or
// the simulation's observable behavior changes incompatibly.
//
// v2: keys carry the fault-injection configuration (rate + seed).
// v3: keys carry the trace-file digest; Profile gained the workload-family
// fields (which feed the app=%+v key line) and Metrics.Tracker gained the
// trace.* counters.
// v4: the store holds results only. Keys no longer carry the snapshot
// format version, which only mattered for the warmup checkpoints that
// used to sit beside each result; directories written by v3 are simply
// abandoned.
const storeFormatVersion = 4

// RunStore is a backend-backed cache of simulation results. The zero
// value is not usable; construct with NewRunStore
// (local directory) or NewRunStoreWithBackend (any blob backend).
// Methods are safe for concurrent use by independent runs (distinct keys);
// concurrent writers of the same key settle on one winner (the backend's
// atomic-write contract).
type RunStore struct {
	b runstore.Backend
}

// NewRunStore opens (creating if needed) a directory-backed run store
// rooted at dir, wrapped in the integrity layer: every Put leaves a
// sha256 sidecar digest, every Get verifies against it, and a corrupt
// entry is quarantined and missed — never silently served (see
// internal/runstore's Verified). Entries predating the layer get their
// digest backfilled on first read.
func NewRunStore(dir string) (*RunStore, error) {
	b, err := runstore.NewDir(dir)
	if err != nil {
		return nil, err
	}
	return &RunStore{b: verifyBackend(b)}, nil
}

// verifyBackend wraps b in the integrity layer, routing its warnings
// through storeWarn (late-bound: tests swap the var after construction).
func verifyBackend(b runstore.Backend) *runstore.Verified {
	v := runstore.NewVerified(b)
	v.Warn = func(format string, args ...interface{}) { storeWarn(format, args...) }
	return v
}

// NewRunStoreWithBackend wraps an arbitrary blob backend — an LRU tier,
// the HTTP client of a coordinator's shared store, or any composition of
// them — in the run store's result semantics.
func NewRunStoreWithBackend(b runstore.Backend) *RunStore {
	return &RunStore{b: b}
}

// Backend exposes the underlying blob store (the coordinator serves it
// to workers over HTTP via runstore.NewServer).
func (s *RunStore) Backend() runstore.Backend { return s.b }

// normalizeOptions applies Run's defaulting rules so that every spelling of
// the same simulation maps to the same store key.
func normalizeOptions(o Options) Options {
	if o.Trace != nil {
		// Trace-driven runs size the machine from the file: the Scale's
		// core/reference counts are derived, not configuration, and App
		// only contributes its display name.
		if o.Scale.Name == "" {
			o.Scale.Name = "trace"
		}
		o.Scale.Cores = o.Trace.Cores()
		o.Scale.Refs = 0
		for _, refs := range o.Trace.Traces {
			if len(refs) > o.Scale.Refs {
				o.Scale.Refs = len(refs)
			}
		}
		if o.App.Name == "" {
			o.App.Name = o.Trace.Name
		}
	}
	if o.Scale.Cores == 0 {
		o.Scale = ScaleExperiment
	}
	if o.Scheme.Kind == KindTiny && o.Scheme.SpillWindow == 0 && o.Scale.Refs < 50000 {
		// Mirrors Run: the paper's 8K-access observation window assumes
		// billions of instructions; scale it with short test traces.
		o.Scheme.SpillWindow = 512
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 4_000_000_000
	}
	return o
}

// Key returns the content address of o's simulation: a hex sha256 over the
// normalized options and the store format version.
func (s *RunStore) Key(o Options) string {
	o = normalizeOptions(o)
	h := sha256.New()
	fmt.Fprintf(h, "store=%d\n", storeFormatVersion)
	fmt.Fprintf(h, "app=%+v\n", o.App)
	fmt.Fprintf(h, "scheme kind=%d ratio=%g gnru=%v spill=%v window=%d genlen=%d format=%q\n",
		o.Scheme.Kind, o.Scheme.Ratio, o.Scheme.GNRU, o.Scheme.Spill,
		o.Scheme.SpillWindow, o.Scheme.FixedGenLen, o.Scheme.EntryFormat)
	fmt.Fprintf(h, "scale name=%s cores=%d refs=%d halved=%v\n",
		o.Scale.Name, o.Scale.Cores, o.Scale.Refs, o.Scale.HalveHierarchy)
	fmt.Fprintf(h, "maxevents=%d\n", o.MaxEvents)
	fmt.Fprintf(h, "fault rate=%g seed=%d\n", o.FaultRate, o.FaultSeed)
	if o.Trace != nil {
		// The digest stands in for the full trace content: identical
		// files dedup to one key, any content change misses.
		fmt.Fprintf(h, "trace digest=%s\n", o.Trace.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// storeWarn reports non-fatal store damage (swapped out by tests).
var storeWarn = func(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "runstore: warning: "+format+"\n", args...)
}

// GetResult returns the stored result for key, if present. An unreadable
// or corrupt (e.g. truncated by a crash predating atomic writes, or
// hand-damaged) entry is a cache miss with a warning, never a sweep
// failure: the run simply re-simulates and PutResult replaces the debris.
func (s *RunStore) GetResult(key string) (Result, bool, error) {
	b, ok, err := s.b.Get(runstore.KindResults, key)
	if err != nil {
		storeWarn("unreadable result %s, treating as a miss: %v", key, err)
		return Result{}, false, nil
	}
	if !ok {
		return Result{}, false, nil
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		storeWarn("corrupt result %s (%v), treating as a miss", key, err)
		return Result{}, false, nil
	}
	return r, true, nil
}

// PutResult stores r under key. If the key already holds a valid result,
// the bytes must match exactly: a mismatch means a key collision or a
// nondeterministic simulation, and fails loudly rather than papering over
// it. A corrupt existing entry (the one GetResult warned about) is simply
// replaced. The refusal happens wherever the backend lives — the local
// directory compares files, the HTTP backend turns the server's 409 into
// the same loud error — so a fleet of workers shares one collision guard.
func (s *RunStore) PutResult(key string, r Result) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	data = append(data, '\n')
	err = s.b.Put(runstore.KindResults, key, data, false)
	if !errors.Is(err, runstore.ErrDiffers) {
		return err
	}
	// The key holds different bytes. A valid stored result is protected;
	// corrupt debris (a pre-atomic-write truncation GetResult warned
	// about) is replaced.
	old, ok, gerr := s.b.Get(runstore.KindResults, key)
	if gerr == nil && ok {
		var stale Result
		if json.Unmarshal(old, &stale) == nil && !bytes.Equal(old, data) {
			return fmt.Errorf("runstore: refusing to overwrite %s: stored result differs from the new run (key collision or nondeterministic simulation)", key)
		}
	}
	storeWarn("replacing corrupt result %s", key)
	return s.b.Put(runstore.KindResults, key, data, true)
}

// GCKindStats is one artifact kind's share of a GC pass.
type GCKindStats struct {
	Scanned     int
	Pruned      int
	PrunedBytes int64
	Kept        int
}

// GCStats reports what a GC pass found (and, unless it was a dry run,
// pruned). The top-level counts cover results only — digest sidecars
// ride along with their entry and quarantined debris is bookkeeping,
// not cached work — while Kinds breaks every walked kind out
// individually (experiments -store-gc -store-gc-dry-run prints this
// table).
type GCStats struct {
	Scanned     int   // results examined
	Pruned      int   // results older than the cutoff
	PrunedBytes int64 // their total size
	Kept        int
	Kinds       map[string]GCKindStats // every walked kind, sidecars included
}

// gcKinds are the kinds a GC pass walks: results first (so an entry's
// digest sidecar is already gone — the integrity layer deletes it with
// the entry — before the sidecar kinds are walked), then the integrity
// layer's derived kinds, which age out by their own modification times
// (covering orphans).
var gcKinds = []string{
	runstore.KindResults,
	runstore.DigestKind(runstore.KindResults),
	runstore.QuarantineKind(runstore.KindResults),
}

// GC prunes results and the integrity layer's sidecar kinds whose
// modification time is older than age. With dryRun set it only reports
// what would go. Long-lived shared stores call this
// periodically (experiments -store-gc) so a fleet's accumulated sweep
// history does not grow without bound; any pruned result is simply
// re-simulated on next use.
func (s *RunStore) GC(age time.Duration, dryRun bool) (GCStats, error) {
	st := GCStats{Kinds: map[string]GCKindStats{}}
	cutoff := time.Now().Add(-age)
	for _, kind := range gcKinds {
		ks := GCKindStats{}
		infos, err := s.b.Keys(kind)
		if err != nil {
			return st, err
		}
		for _, info := range infos {
			ks.Scanned++
			if info.ModTime.After(cutoff) {
				ks.Kept++
				continue
			}
			ks.Pruned++
			ks.PrunedBytes += info.Size
			if dryRun {
				continue
			}
			if err := s.b.Delete(kind, info.Key); err != nil {
				return st, err
			}
		}
		if ks.Scanned > 0 {
			st.Kinds[kind] = ks
		}
		if kind == runstore.KindResults {
			st.Scanned += ks.Scanned
			st.Pruned += ks.Pruned
			st.PrunedBytes += ks.PrunedBytes
			st.Kept += ks.Kept
		}
	}
	return st, nil
}

// Scrub walks every result through the integrity layer's
// verify-or-quarantine decision (experiments -store-scrub). On a store
// whose backend already carries the Verified wrapper this uses it (the
// scrub counters land on its runstore_scrub_* series); on a bare
// backend an ad-hoc wrapper is used, which doubles as a migration pass —
// every entry without a digest sidecar gets one backfilled.
func (s *RunStore) Scrub() (runstore.ScrubStats, error) {
	v := runstore.FindVerified(s.b)
	if v == nil {
		v = verifyBackend(s.b)
	}
	return v.Scrub(runstore.KindResults)
}

// RunWithStore executes one configuration like Run, routing its result
// through store (which may be nil, reducing to Run). With resume set, a
// stored result for the same key is returned without simulating; every
// simulated result is written back, where PutResult's byte-compare
// doubles as a determinism check.
func RunWithStore(o Options, store *RunStore, resume bool) Result {
	r, _ := runWithStore(o, store, resume)
	return r
}

// runWithStore additionally reports whether it simulated (false when a
// stored result was served verbatim), so callers can count real work.
// Every caller takes this one path: plain and store-backed runs,
// instrumented runs and fleet workers alike.
func runWithStore(o Options, store *RunStore, resume bool) (Result, bool) {
	o = normalizeOptions(o)
	var key string
	if store != nil {
		key = store.Key(o)
		if resume {
			if r, ok, err := store.GetResult(key); err == nil && ok {
				return r, false
			}
		}
	}

	start := time.Now()
	cfg := o.Scale.machine()
	cfg.NewTracker = o.Scheme.newTracker(cfg)
	cfg.Recorder = o.Obs
	if o.FaultRate > 0 {
		cfg.Faults = fault.Uniform(o.FaultSeed, o.FaultRate)
	}
	var sys *system.System
	if o.Trace != nil {
		cfg.TraceStats = o.Trace.Stats
		sys = system.New(cfg, o.Trace.Traces)
	} else {
		gen := trace.NewGen(o.App, cfg.Cores)
		traces := gen.Traces(o.Scale.Refs)
		cfg.TraceStats = gen.Stats()
		sys = system.New(cfg, traces)
	}
	sys.Start()
	m := completeBounded(sys, o, start)
	res := Result{App: o.App.Name, Scheme: o.Scheme.String(), Cores: cfg.Cores, Metrics: m}
	if store != nil {
		if err := store.PutResult(key, res); err != nil {
			panic(err)
		}
	}
	return res, true
}

// RunTimeoutError is the panic value of a run that blew its wall-clock
// Timeout. It carries the stalled-machine dump so a quarantined failure is
// debuggable from its artifact alone.
type RunTimeoutError struct {
	App, Scheme string
	Elapsed     time.Duration
	Dump        string // DumpStall of the machine at the deadline
}

func (e *RunTimeoutError) Error() string {
	return fmt.Sprintf("run %s/%s exceeded its %s wall-clock deadline", e.App, e.Scheme, e.Elapsed.Round(time.Millisecond))
}

// deadlineChunk is how many events run between wall-clock checks on a
// deadline-bounded run: large enough that the check is free, small enough
// that a wedged simulation is caught within a fraction of a second.
const deadlineChunk = 1 << 16

// completeBounded finishes a started system, enforcing o's
// wall-clock Timeout by checking the clock every deadlineChunk events. The
// unbounded path is exactly Complete — one engine call, no added work in
// the hot loop.
func completeBounded(sys *system.System, o Options, start time.Time) Metrics {
	// The machine is dead after this function (its metrics are the only
	// output), so its cache slabs go back to the construction pools. A
	// timeout panic skips the release; the abandoned slabs are simply
	// collected.
	if o.Timeout <= 0 {
		m := sys.Complete(o.MaxEvents)
		sys.ReleaseStorage()
		return m
	}
	for {
		budget := uint64(deadlineChunk)
		if o.MaxEvents != 0 {
			done := sys.Engine().Executed()
			if done >= o.MaxEvents {
				break
			}
			if rem := o.MaxEvents - done; rem < budget {
				budget = rem
			}
		}
		if sys.RunEvents(budget) < budget {
			break // queue drained
		}
		if elapsed := time.Since(start); elapsed > o.Timeout {
			panic(&RunTimeoutError{App: o.App.Name, Scheme: o.Scheme.String(),
				Elapsed: elapsed, Dump: sys.DumpStall()})
		}
	}
	m := sys.Complete(o.MaxEvents)
	sys.ReleaseStorage()
	return m
}
