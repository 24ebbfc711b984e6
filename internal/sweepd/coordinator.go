// Package sweepd is the distributed sweep service: a coordinator that
// serves work units to pull-based workers over HTTP, with leases,
// heartbeats and lease-expiry requeue, and the worker loop that claims,
// executes and reports them.
//
// The package is deliberately ignorant of what a unit *is*: a unit is an
// opaque (key, payload) pair, where the key is the run store's content
// hash (the dedup identity — the coordinator hands out each key at most
// once per lease generation) and the payload is whatever the caller
// serialized (tinydir ships the run's normalized Options as JSON).
// Results flow back as opaque bytes too; the tinydir layer merges them
// into the store through the usual collision guard.
//
// The unit lease state machine (DESIGN.md §12):
//
//	pending --claim--> leased --done--> done       (result recorded once)
//	                     |  \--fail--> failed      (worker-reported error)
//	                     \--lease expiry--> pending (requeue, bounded)
//
// A done unit stays done: late duplicate completions from a worker whose
// lease expired are acknowledged if byte-identical and refused loudly
// (HTTP 409) if not — determinism makes "same key, different result" a
// bug, never a race to tolerate.
//
// Crash safety (DESIGN.md §14): a coordinator built by RecoverCoordinator
// journals every lifecycle transition to a write-ahead log and restarts
// into the exact state it held. Each incarnation carries a sweep *epoch*;
// leases are granted under it and workers echo it on heartbeat/complete,
// so a restarted coordinator fences traffic from leases granted by its
// previous life (HTTP 412) — the worker drops the lease and re-claims
// under the new epoch.
package sweepd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"
)

// ErrClosed reports a coordinator that has been shut down; pending Do
// calls unblock with it.
var ErrClosed = errors.New("sweepd: coordinator closed")

// DefaultLeaseTTL is the lease length handed to workers; a worker that
// neither heartbeats nor completes within it loses the unit.
const DefaultLeaseTTL = 30 * time.Second

// DefaultMaxExpiries bounds how often one unit may be requeued after
// lease expiries before the coordinator fails it (a unit that kills
// every worker that touches it must not wedge the sweep forever).
const DefaultMaxExpiries = 10

// Unit is one work item: the store key it dedups under and the opaque
// payload a worker needs to execute it.
type Unit struct {
	Key     string
	Payload []byte
}

type unitState int

const (
	statePending unitState = iota
	stateLeased
	stateDone
	stateFailed
)

type record struct {
	unit      Unit
	st        unitState
	worker    string    // current/last lease holder
	leaseExp  time.Time // valid while leased
	expiries  int
	claimedAt time.Time // when the current/last lease was granted
	result    []byte
	errmsg    string
	done      chan struct{} // closed when st reaches done or failed
}

// workerInfo is the coordinator's per-worker bookkeeping.
type workerInfo struct {
	Name      string
	LastSeen  time.Time
	Active    string // key of the currently leased unit ("" when idle)
	Completed int
	Failed    int

	// UnitWallSum/UnitsWalled accumulate claim-to-completion wall clock
	// for this worker's units; their ratio feeds the straggler detector.
	UnitWallSum time.Duration
	UnitsWalled int
	// Report is the worker's last pushed self-telemetry snapshot.
	Report *WorkerReport
}

// Coordinator plans nothing itself: callers Submit units (typically from
// the suite's prefetch plan) and block on their completion while workers
// pull them over the HTTP handler. Safe for concurrent use.
type Coordinator struct {
	// LeaseTTL and MaxExpiries default to the package constants when 0.
	LeaseTTL    time.Duration
	MaxExpiries int
	// Logger receives the lease-layer events: claims and completions at
	// debug, expiries and fencing at info, refused duplicates at warn,
	// failed units at error. Nil means slog.Default().
	Logger *slog.Logger
	// StragglerFactor defaults to DefaultStragglerFactor when 0.
	StragglerFactor float64

	// tel is the instrument set installed by EnableMetrics; its zero
	// value (all-nil instruments) is telemetry off, so every hook below
	// costs exactly one nil-receiver branch per event when disabled.
	tel coordMetrics

	mu      sync.Mutex
	recs    map[string]*record
	queue   []string // pending keys, claim order
	workers map[string]*workerInfo
	closed  bool
	closeCh chan struct{}
	now     func() time.Time // test seam

	// epoch is this incarnation's fencing token (1 for a fresh in-memory
	// coordinator; last journaled epoch + 1 after recovery). journal is
	// nil for a plain New() coordinator.
	epoch   uint64
	journal *Journal
}

// New creates an empty, in-memory (journal-less) coordinator.
func New() *Coordinator {
	return &Coordinator{
		recs:    map[string]*record{},
		workers: map[string]*workerInfo{},
		closeCh: make(chan struct{}),
		now:     time.Now,
		epoch:   1,
	}
}

// RecoverCoordinator opens (creating on first use) the write-ahead
// journal in dir and rebuilds the coordinator it describes: done and
// failed units answer Do immediately, pending units keep their queue
// order, and leased units requeue — their leases were granted by the
// previous incarnation, whose epoch the recovered coordinator fences.
// Every subsequent transition is journaled, so the result is itself
// recoverable.
func RecoverCoordinator(dir string) (*Coordinator, error) {
	j, st, err := openJournal(dir)
	if err != nil {
		return nil, err
	}
	c := New()
	c.journal = j
	c.epoch = st.epoch + 1

	// Pending units in their journaled claim order, then the requeued
	// leases in deterministic key order (their relative claim ages died
	// with the old incarnation's clock).
	c.queue = st.queue
	var requeued []string
	for _, key := range sortedUnitKeys(st.units) {
		u := st.units[key]
		r := &record{
			unit:     Unit{Key: key, Payload: u.payload},
			st:       u.st,
			worker:   u.worker,
			expiries: u.expiries,
			result:   u.result,
			errmsg:   u.err,
			done:     make(chan struct{}),
		}
		switch u.st {
		case stateDone, stateFailed:
			close(r.done)
		case stateLeased:
			r.st = statePending
			requeued = append(requeued, key)
		}
		c.recs[key] = r
	}
	c.queue = append(c.queue, requeued...)

	// The epoch bump must be durable before any lease is granted under
	// it — otherwise a second crash could reissue an already-fenced
	// epoch.
	err = j.append(journalRecord{T: "epoch", Epoch: c.epoch})
	if err == nil {
		err = j.sync()
	}
	if err != nil {
		j.Close()
		return nil, err
	}
	return c, nil
}

// Epoch returns this incarnation's fencing token.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// journalLocked appends one record. Journal damage (disk full, I/O
// error) must not wedge a live sweep: the coordinator keeps serving and
// logs that it is no longer crash-safe. Callers hold mu.
func (c *Coordinator) journalLocked(rec journalRecord) {
	if c.journal == nil {
		return
	}
	if err := c.journal.append(rec); err != nil {
		c.log().Warn("journal append failed, coordinator no longer crash-safe", "err", err)
		return
	}
	c.tel.journalAppends.Inc()
}

func (c *Coordinator) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c *Coordinator) maxExpiries() int {
	if c.MaxExpiries > 0 {
		return c.MaxExpiries
	}
	return DefaultMaxExpiries
}

func (c *Coordinator) log() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

// logUnit logs one per-unit event tagged with the full unit key and the
// worker, the pair that joins coordinator and worker logs. It checks
// the level first and passes typed attributes, so a disabled level
// costs no allocation.
func logUnit(l *slog.Logger, lv slog.Level, msg, unit, worker string, attrs ...slog.Attr) {
	ctx := context.Background()
	if !l.Enabled(ctx, lv) {
		return
	}
	l.LogAttrs(ctx, lv, msg, append([]slog.Attr{slog.String("unit", unit), slog.String("worker", worker)}, attrs...)...)
}

// Close shuts the coordinator down: pending Do calls return ErrClosed,
// workers' next claim tells them the sweep is over. Idempotent.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.closeCh)
		if c.journal != nil {
			if err := c.journal.Close(); err != nil {
				c.log().Warn("journal close failed", "err", err)
			}
		}
	}
}

// Do submits a unit (idempotently — a key already submitted joins the
// existing record) and blocks until some worker completes it, it fails
// terminally, or the coordinator closes.
func (c *Coordinator) Do(u Unit) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	r, ok := c.recs[u.Key]
	if !ok {
		r = &record{unit: u, st: statePending, done: make(chan struct{})}
		c.recs[u.Key] = r
		c.queue = append(c.queue, u.Key)
		c.journalLocked(journalRecord{T: "enq", Key: u.Key, Payload: u.Payload})
	}
	c.mu.Unlock()

	select {
	case <-r.done:
	case <-c.closeCh:
		return nil, ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.st == stateFailed {
		return nil, fmt.Errorf("sweepd: unit %s failed: %s", u.Key, r.errmsg)
	}
	return r.result, nil
}

// expireLocked requeues leased units whose lease lapsed. A lease is
// valid *through* its expiry instant — the same boundary heartbeat uses
// — so a unit completing in the tick its lease would lapse is accepted
// exactly once and never also counted as an expiry. Callers hold mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for key, r := range c.recs {
		if r.st != stateLeased || !now.After(r.leaseExp) {
			continue
		}
		r.expiries++
		c.tel.leaseExpiries.Inc()
		if w := c.workers[r.worker]; w != nil && w.Active == key {
			w.Active = ""
		}
		if r.expiries >= c.maxExpiries() {
			r.st = stateFailed
			r.errmsg = fmt.Sprintf("lease expired %d times (last worker %s)", r.expiries, r.worker)
			c.tel.unitFailures.Inc()
			close(r.done)
			logUnit(c.log(), slog.LevelError, "unit failed", key, r.worker, slog.String("err", r.errmsg))
			c.journalLocked(journalRecord{T: "expire", Key: key, Terminal: true, Err: r.errmsg})
			continue
		}
		r.st = statePending
		c.queue = append(c.queue, key)
		logUnit(c.log(), slog.LevelInfo, "lease expired, requeued", key, r.worker, slog.Int("expiries", r.expiries))
		c.journalLocked(journalRecord{T: "expire", Key: key})
	}
}

// claim hands the oldest pending unit to a worker, or reports no work
// (done=false) / sweep over (over=true). rep, when non-nil, is the
// worker's pushed self-telemetry snapshot. The returned epoch is the
// fencing token the lease was granted under; the worker echoes it on
// heartbeat/complete for this unit.
func (c *Coordinator) claim(worker string, rep *WorkerReport) (u Unit, ttl time.Duration, epoch uint64, ok, over bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Unit{}, 0, c.epoch, false, true
	}
	c.touchLocked(worker, now, rep)
	c.expireLocked(now)
	for len(c.queue) > 0 {
		key := c.queue[0]
		c.queue = c.queue[1:]
		r := c.recs[key]
		if r == nil || r.st != statePending {
			continue // stale queue entry (requeued + completed, or failed)
		}
		r.st = stateLeased
		r.worker = worker
		r.leaseExp = now.Add(c.leaseTTL())
		r.claimedAt = now
		c.workers[worker].Active = key
		c.tel.claims.Inc()
		logUnit(c.log(), slog.LevelDebug, "unit leased", key, worker)
		c.journalLocked(journalRecord{T: "claim", Key: key, Worker: worker})
		return r.unit, c.leaseTTL(), c.epoch, true, false
	}
	c.tel.claimsEmpty.Inc()
	return Unit{}, 0, c.epoch, false, false
}

// fencedLocked reports whether a request stamped with epoch belongs to
// another incarnation (any epoch but the current one). Callers hold mu.
func (c *Coordinator) fencedLocked(epoch uint64) bool {
	if epoch == c.epoch {
		return false
	}
	c.tel.epochFences.Inc()
	return true
}

// heartbeat extends a worker's lease; reports ok=false when the lease is
// gone (expired and requeued, completed elsewhere, or never held) and
// fenced=true when the lease was granted by a previous incarnation.
func (c *Coordinator) heartbeat(worker, key string, epoch uint64, rep *WorkerReport) (ttl time.Duration, ok, fenced bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(worker, now, rep)
	c.tel.heartbeats.Inc()
	if c.fencedLocked(epoch) {
		logUnit(c.log(), slog.LevelInfo, "fenced stale-epoch heartbeat", key, worker,
			slog.Uint64("lease_epoch", epoch), slog.Uint64("epoch", c.epoch))
		return 0, false, true
	}
	r := c.recs[key]
	if r == nil || r.st != stateLeased || r.worker != worker || now.After(r.leaseExp) {
		return 0, false, false
	}
	// Lease times are not journaled: recovery requeues every lease
	// anyway (the old holders are epoch-fenced).
	r.leaseExp = now.Add(c.leaseTTL())
	return c.leaseTTL(), true, false
}

// errFencedEpoch marks a completion carried under a previous
// incarnation's epoch; the handler maps it to HTTP 412.
var errFencedEpoch = errors.New("sweepd: stale sweep epoch")

// complete records a unit's outcome. Exactly-once discipline: the first
// completion wins whatever the lease state (a worker that lost its lease
// but finished anyway still delivers a usable, deterministic result);
// later identical completions are acknowledged, differing ones refused.
func (c *Coordinator) complete(worker, key string, epoch uint64, result []byte, errmsg string) error {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchLocked(worker, now, nil)
	if c.fencedLocked(epoch) {
		// The lease predates this incarnation: refuse the completion so
		// the unit re-runs (and store-serves) under the current epoch,
		// keeping recovered sweeps on one coherent lease generation.
		logUnit(c.log(), slog.LevelInfo, "fenced stale-epoch completion", key, worker,
			slog.Uint64("lease_epoch", epoch), slog.Uint64("epoch", c.epoch))
		return errFencedEpoch
	}
	w := c.workers[worker]
	if w.Active == key {
		w.Active = ""
	}
	r := c.recs[key]
	if r == nil {
		return fmt.Errorf("sweepd: completion for unknown unit %s", key)
	}
	switch r.st {
	case stateDone:
		if errmsg == "" && string(result) == string(r.result) {
			c.tel.dupIdentical.Inc()
			return nil // duplicate of the recorded result: idempotent
		}
		c.tel.conflicts.Inc()
		logUnit(c.log(), slog.LevelWarn, "refused conflicting duplicate completion", key, worker)
		return fmt.Errorf("sweepd: unit %s already complete with different outcome (nondeterministic worker or key collision)", key)
	case stateFailed:
		return nil // outcome already terminal; late result discarded
	}
	// Attribute claim-to-completion wall clock to the finishing worker
	// (also on failure — a slow path to a panic is still slowness).
	if !r.claimedAt.IsZero() {
		wall := now.Sub(r.claimedAt)
		w.UnitWallSum += wall
		w.UnitsWalled++
		c.tel.unitWallMS.Observe(uint64(wall.Milliseconds()))
	}
	if errmsg != "" {
		// Worker-reported failures are deterministic (panics, blown
		// deadlines survive retries identically), so fail fast instead
		// of burning every worker on the same unit.
		r.st = stateFailed
		r.errmsg = fmt.Sprintf("worker %s: %s", worker, errmsg)
		w.Failed++
		c.tel.unitFailures.Inc()
		close(r.done)
		logUnit(c.log(), slog.LevelError, "unit failed", key, worker, slog.String("err", errmsg))
		c.journalLocked(journalRecord{T: "fail", Key: key, Worker: worker, Err: r.errmsg})
		return nil
	}
	r.st = stateDone
	r.result = result
	r.worker = worker
	w.Completed++
	c.tel.completions.Inc()
	close(r.done)
	logUnit(c.log(), slog.LevelDebug, "unit done", key, worker)
	c.journalLocked(journalRecord{T: "done", Key: key, Worker: worker, Result: result})
	return nil
}

func (c *Coordinator) touchLocked(worker string, now time.Time, rep *WorkerReport) {
	w := c.workers[worker]
	if w == nil {
		w = &workerInfo{Name: worker}
		c.workers[worker] = w
	}
	w.LastSeen = now
	if rep != nil {
		w.Report = rep
	}
}

// UnitStatus is one unit's row in a Status snapshot.
type UnitStatus struct {
	Key      string
	State    string
	Worker   string `json:",omitempty"`
	Expiries int    `json:",omitempty"`
	Err      string `json:",omitempty"`
}

// WorkerStatus is one worker's row in a Status snapshot.
type WorkerStatus struct {
	Name      string
	Active    string `json:",omitempty"`
	IdleFor   time.Duration
	Completed int
	Failed    int
	// Units counts completions with wall-clock attribution;
	// MeanUnitWallMs is their mean claim-to-completion wall.
	Units          int     `json:",omitempty"`
	MeanUnitWallMs float64 `json:",omitempty"`
	// Straggler: mean unit wall exceeds StragglerFactor x fleet median.
	// Stale: not heard from in over a lease TTL (heartbeats run at
	// TTL/3, idle polls far faster — silence that long means gone).
	Straggler bool `json:",omitempty"`
	Stale     bool `json:",omitempty"`
	// Report is the worker's last pushed self-telemetry snapshot.
	Report *WorkerReport `json:",omitempty"`
}

// Status is the coordinator's live snapshot (dashboard, /status).
type Status struct {
	Pending, Leased, Done, Failed int
	Total                         int
	Closed                        bool
	// Epoch is this incarnation's fencing token; Journal is the WAL
	// counter block, absent for an in-memory coordinator.
	Epoch      uint64
	Journal    *JournalStatus `json:",omitempty"`
	Stragglers int            `json:",omitempty"`
	Workers    []WorkerStatus
	// Units carries only the non-terminal rows (pending/leased) plus
	// failures — the interesting ones; done units are just a count.
	Units []UnitStatus
}

// Status returns a consistent snapshot, expiring lapsed leases first so
// the view never shows a lease the next claim would not honor.
func (c *Coordinator) Status() Status {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	st := Status{Closed: c.closed, Total: len(c.recs), Epoch: c.epoch}
	if c.journal != nil {
		js := c.journal.Status()
		st.Journal = &js
	}
	for key, r := range c.recs {
		switch r.st {
		case statePending:
			st.Pending++
			st.Units = append(st.Units, UnitStatus{Key: key, State: "pending", Expiries: r.expiries})
		case stateLeased:
			st.Leased++
			st.Units = append(st.Units, UnitStatus{Key: key, State: "leased", Worker: r.worker, Expiries: r.expiries})
		case stateDone:
			st.Done++
		case stateFailed:
			st.Failed++
			st.Units = append(st.Units, UnitStatus{Key: key, State: "failed", Worker: r.worker, Expiries: r.expiries, Err: r.errmsg})
		}
	}
	sort.Slice(st.Units, func(i, j int) bool { return st.Units[i].Key < st.Units[j].Key })
	stragglers := c.stragglersLocked()
	for _, w := range c.workers {
		ws := WorkerStatus{
			Name: w.Name, Active: w.Active,
			IdleFor:   now.Sub(w.LastSeen).Round(time.Millisecond),
			Completed: w.Completed, Failed: w.Failed,
			Units:     w.UnitsWalled,
			Straggler: stragglers[w.Name],
			Stale:     now.Sub(w.LastSeen) > c.leaseTTL(),
			Report:    w.Report,
		}
		if w.UnitsWalled > 0 {
			ws.MeanUnitWallMs = float64(w.meanWall()) / float64(time.Millisecond)
		}
		if ws.Straggler {
			st.Stragglers++
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	return st
}

// The wire types of the coordinator protocol. []byte fields ride JSON's
// base64 encoding.

type claimRequest struct {
	Worker string
	// Report is the worker's self-telemetry push (nil when it has none).
	Report *WorkerReport
}

type claimResponse struct {
	Key     string
	Payload []byte
	LeaseMs int64
	// Epoch is the incarnation the lease was granted under; the worker
	// echoes it on this unit's heartbeat/done requests.
	Epoch uint64
}

type heartbeatRequest struct {
	Worker, Key string
	Epoch       uint64
	Report      *WorkerReport
}

type heartbeatResponse struct {
	LeaseMs int64
}

type doneRequest struct {
	Worker, Key string
	Epoch       uint64
	Result      []byte
	Err         string
}

// epochHeader carries the coordinator's current epoch on every protocol
// response, so a fenced worker (412) learns the incarnation to re-claim
// under without another round trip.
const epochHeader = "X-Sweep-Epoch"

// Handler returns the coordinator's HTTP API, to be mounted under a
// prefix (tinydir mounts it at /sweepd/):
//
//	POST /claim      {worker} -> 200 {key,payload,leaseMs,epoch} | 204 no work | 410 sweep over
//	POST /heartbeat  {worker,key,epoch} -> 200 {leaseMs} | 410 lease gone | 412 stale epoch
//	POST /done       {worker,key,epoch,result,err} -> 204 | 409 conflicting duplicate | 412 stale epoch
//	GET  /status     -> 200 Status JSON
//
// Every response carries the current epoch in X-Sweep-Epoch.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/claim", func(w http.ResponseWriter, r *http.Request) {
		var req claimRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		u, ttl, epoch, ok, over := c.claim(req.Worker, req.Report)
		w.Header().Set(epochHeader, fmt.Sprint(epoch))
		switch {
		case over:
			http.Error(w, "sweep complete", http.StatusGone)
		case !ok:
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, claimResponse{Key: u.Key, Payload: u.Payload, LeaseMs: ttl.Milliseconds(), Epoch: epoch})
		}
	})
	mux.HandleFunc("/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		ttl, ok, fenced := c.heartbeat(req.Worker, req.Key, req.Epoch, req.Report)
		w.Header().Set(epochHeader, fmt.Sprint(c.Epoch()))
		if fenced {
			http.Error(w, "stale sweep epoch", http.StatusPreconditionFailed)
			return
		}
		if !ok {
			http.Error(w, "lease gone", http.StatusGone)
			return
		}
		writeJSON(w, heartbeatResponse{LeaseMs: ttl.Milliseconds()})
	})
	mux.HandleFunc("/done", func(w http.ResponseWriter, r *http.Request) {
		var req doneRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		err := c.complete(req.Worker, req.Key, req.Epoch, req.Result, req.Err)
		w.Header().Set(epochHeader, fmt.Sprint(c.Epoch()))
		if errors.Is(err, errFencedEpoch) {
			http.Error(w, err.Error(), http.StatusPreconditionFailed)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	return mux
}

// maxBodyBytes bounds one protocol request (payloads are small Options
// JSON; results are Result JSON — both KBs).
const maxBodyBytes = 16 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
