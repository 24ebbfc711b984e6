package main

import (
	"bytes"
	"fmt"
	"time"

	"tinydir"
	"tinydir/internal/core"
	"tinydir/internal/dir"
	"tinydir/internal/proto"
	"tinydir/internal/runstore"
	"tinydir/internal/system"
	"tinydir/internal/trace"
)

// The traced rebuild wires each unit's machine itself, from the public
// internals, so it can time every layer boundary. normalized, machine
// and tracker duplicate tinydir's own wiring; every traced unit's Metrics
// must equal the untraced result for the same options, which guards the
// duplicate.

// normalized applies tinydir's option defaults that change the machine.
func normalized(o tinydir.Options) tinydir.Options {
	if o.Scheme.Kind == tinydir.KindTiny && o.Scheme.SpillWindow == 0 && o.Scale.Refs < 50000 {
		o.Scheme.SpillWindow = 512
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 4_000_000_000
	}
	return o
}

// machine is the system configuration of a scale.
func machine(sc tinydir.Scale) system.Config {
	var cfg system.Config
	switch {
	case sc.Cores <= 8:
		cfg = system.TestConfig(sc.Cores)
	case sc.Cores >= 128:
		cfg = system.DefaultConfig(sc.Cores)
	default:
		cfg = system.DefaultConfig(sc.Cores)
		cfg.L1Sets, cfg.L2Sets, cfg.LLCSets = 32, 64, 64
	}
	if sc.HalveHierarchy {
		cfg.L1Sets /= 2
		cfg.L2Sets /= 2
		cfg.LLCSets /= 2
	}
	return cfg
}

// trackerModules are the traced tracker modules, each with the scheme
// that stands for it where a workload does not use it (its probe unit and
// its microbenchmark).
var trackerModules = []struct {
	name   string
	scheme tinydir.Scheme
}{
	{"dir.sparse", tinydir.SparseDirectory(2)},
	{"core.tiny", tinydir.TinyDirectory(1.0/256, true, true)},
	{"core.inllc", tinydir.InLLC(false)},
	{"dir.stash", tinydir.Stash(1.0 / 32)},
}

// tracker returns the module name and constructor of a scheme's tracker.
func tracker(s tinydir.Scheme, cfg system.Config) (string, func() proto.Tracker, error) {
	n := cfg.DirEntriesPerSlice(s.Ratio)
	switch {
	case s.Kind == tinydir.KindSparse && (s.EntryFormat == "" || s.EntryFormat == "fullmap"):
		return "dir.sparse", func() proto.Tracker { return dir.NewSparse(n) }, nil
	case s.Kind == tinydir.KindTiny:
		return "core.tiny", func() proto.Tracker {
			return core.NewTiny(core.TinyConfig{Entries: n, GNRU: s.GNRU, Spill: s.Spill,
				WindowAccesses: s.SpillWindow, FixedGenLen: s.FixedGenLen})
		}, nil
	case s.Kind == tinydir.KindInLLC:
		return "core.inllc", func() proto.Tracker { return core.NewInLLC(false) }, nil
	case s.Kind == tinydir.KindStash:
		return "dir.stash", func() proto.Tracker { return dir.NewStash(n) }, nil
	}
	return "", nil, fmt.Errorf("traced rebuild does not wire scheme %s", s)
}

// trackerStats counts one tracker module's calls and times every 64th.
type trackerStats struct {
	begins, commits, victims uint64
	beginNs, commitNs        time.Duration
	beginSamples, commitN    uint64
	refs                     uint64 // trace references of the units using it
}

const sampleEvery = 64

// tracedTracker delegates to a tracker, counting and sampling its calls.
type tracedTracker struct {
	proto.Tracker
	st *trackerStats
}

func (t *tracedTracker) Begin(addr uint64, kind proto.ReqKind, llcHit bool) proto.View {
	t.st.begins++
	if t.st.begins%sampleEvery != 0 {
		return t.Tracker.Begin(addr, kind, llcHit)
	}
	start := time.Now()
	v := t.Tracker.Begin(addr, kind, llcHit)
	t.st.beginNs += time.Since(start)
	t.st.beginSamples++
	return v
}

func (t *tracedTracker) Commit(addr uint64, kind proto.ReqKind, from int, next proto.Entry) proto.Effects {
	t.st.commits++
	if t.st.commits%sampleEvery != 0 {
		return t.Tracker.Commit(addr, kind, from, next)
	}
	start := time.Now()
	e := t.Tracker.Commit(addr, kind, from, next)
	t.st.commitNs += time.Since(start)
	t.st.commitN++
	return e
}

func (t *tracedTracker) OnLLCVictim(l *proto.LLCLine) proto.Effects {
	t.st.victims++
	return t.Tracker.OnLLCVictim(l)
}

// ReleaseStorage forwards the optional slab release the system calls.
func (t *tracedTracker) ReleaseStorage() {
	if r, ok := t.Tracker.(interface{ ReleaseStorage() }); ok {
		r.ReleaseStorage()
	}
}

// simTrace accumulates the traced rebuild's layer measurements over the
// units it rebuilds.
type simTrace struct {
	tr       *tracer
	phase    string
	trackers map[string]*trackerStats
	events   uint64
	runTime  time.Duration
	ring     []float64 // ring-tier depth between event chunks
	overMax  int
	snapMB   []float64
	metrics  []tinydir.Metrics
	refs     uint64 // trace references of the rebuilt units
}

func newSimTrace(tr *tracer, phase string) *simTrace {
	st := &simTrace{tr: tr, phase: phase, trackers: map[string]*trackerStats{}}
	for _, m := range trackerModules {
		st.trackers[m.name] = &trackerStats{}
	}
	return st
}

// chunk is how many events run between engine-tier samples.
const chunk = 4096

// run drives sys for up to limit events (0 = until the queue drains) in
// chunks, sampling the calendar-queue tiers in between.
func (st *simTrace) run(sys *system.System, limit uint64) {
	id := st.tr.begin("sim.run")
	start := time.Now()
	var done uint64
	for limit == 0 || done < limit {
		n := uint64(chunk)
		if limit != 0 && limit-done < n {
			n = limit - done
		}
		got := sys.RunEvents(n)
		done += got
		ring, over := sys.Engine().Tiers()
		st.ring = append(st.ring, float64(ring))
		st.overMax = max(st.overMax, over)
		if got < n {
			break
		}
	}
	st.runTime += time.Since(start)
	st.events += done
	st.tr.end(id)
}

// rebuild runs one unit as tinydir.Run does, or with store set as
// tinydir.RunWithStore(o, store, false) does: restore from the unit's
// warmup checkpoint when the store holds one, otherwise run cold and save
// one at the warmup boundary.
func (st *simTrace) rebuild(o tinydir.Options, store *tinydir.RunStore) (tinydir.Result, error) {
	o = normalized(o)
	u := st.tr.begin("unit")
	defer st.tr.end(u)
	cfg := machine(o.Scale)
	name, mk, err := tracker(o.Scheme, cfg)
	if err != nil {
		return tinydir.Result{}, err
	}
	ts := st.trackers[name]
	cfg.NewTracker = func(int) proto.Tracker { return &tracedTracker{Tracker: mk(), st: ts} }
	refs := uint64(cfg.Cores) * uint64(o.Scale.Refs)
	ts.refs += refs

	var key string
	var ckpt []byte
	if store != nil {
		key = store.Key(o)
		data, ok, err := store.Backend().Get(runstore.KindCheckpoints, key)
		if err == nil && ok && len(data) > 0 {
			ckpt = data
		}
	}
	id := st.tr.begin("trace.gen")
	gen := trace.NewGen(o.App, cfg.Cores)
	traces := gen.Traces(o.Scale.Refs)
	cfg.TraceStats = gen.Stats()
	st.tr.end(id)
	id = st.tr.begin("system.new")
	sys := system.New(cfg, traces)
	st.tr.end(id)
	switch {
	case ckpt != nil:
		id = st.tr.begin("snapshot.restore")
		err := sys.Restore(bytes.NewReader(ckpt))
		st.tr.end(id)
		if err != nil {
			return tinydir.Result{}, fmt.Errorf("restore %s/%s: %w", o.App.Name, o.Scheme, err)
		}
	default:
		id = st.tr.begin("system.start")
		sys.Start()
		st.tr.end(id)
		if store != nil {
			st.run(sys, warmupEvents(o))
			var buf bytes.Buffer
			id = st.tr.begin("snapshot.save")
			err := sys.Save(&buf)
			st.tr.end(id)
			if err != nil {
				return tinydir.Result{}, fmt.Errorf("save %s/%s: %w", o.App.Name, o.Scheme, err)
			}
			st.snapMB = append(st.snapMB, float64(buf.Len())/(1<<20))
			if err := store.Backend().Put(runstore.KindCheckpoints, key, buf.Bytes(), true); err != nil {
				return tinydir.Result{}, err
			}
		}
	}
	st.run(sys, 0)
	id = st.tr.begin("system.collect")
	m := sys.Complete(o.MaxEvents)
	st.tr.end(id)
	id = st.tr.begin("system.release")
	sys.ReleaseStorage()
	st.tr.end(id)
	res := tinydir.Result{App: o.App.Name, Scheme: o.Scheme.String(), Cores: cfg.Cores, Metrics: m}
	if store != nil {
		if err := store.PutResult(key, res); err != nil {
			return tinydir.Result{}, err
		}
	}
	st.metrics = append(st.metrics, m)
	st.refs += refs
	return res, nil
}

// warmupEvents is the event count at which RunWithStore checkpoints.
func warmupEvents(o tinydir.Options) uint64 {
	return min(2*uint64(o.Scale.Cores)*uint64(o.Scale.Refs), o.MaxEvents)
}
