package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"tinydir/internal/sweepd"
)

// fleetTrace times the coordinator's HTTP API from outside: claim,
// heartbeat and done on /sweepd/, and blob GETs and PUTs on /store/. It
// attributes store calls to units by the key in the path and claims by
// the key in the response body.
type fleetTrace struct {
	tr   *tracer
	next http.Handler

	mu                      sync.Mutex
	unitOf                  map[string]int // unit key -> unit index
	units                   []fleetUnit
	emptyClaims, heartbeats int
	claims, dones           []time.Duration
	gets, puts              []time.Duration
	// status is the coordinator's view once the pass is done: journal
	// counters and the worker's pushed store-cache counters.
	status sweepd.Status
}

// fleetUnit is one unit's timeline as the coordinator saw it.
type fleetUnit struct {
	dispatched, claimStart, claimEnd, doneStart, doneEnd time.Time
	store                                                time.Duration
}

func newFleetTrace(tr *tracer, keys []string) *fleetTrace {
	f := &fleetTrace{tr: tr, unitOf: map[string]int{}, units: make([]fleetUnit, len(keys))}
	for i, k := range keys {
		f.unitOf[k] = i
	}
	return f
}

func (f *fleetTrace) wrap(next http.Handler) http.Handler {
	f.next = next
	return f
}

func (f *fleetTrace) dispatched(i int) {
	now := time.Now()
	f.mu.Lock()
	f.units[i].dispatched = now
	f.mu.Unlock()
}

// bodyRecorder keeps a copy of a claim response.
type bodyRecorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (r *bodyRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *bodyRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.body.Write(p)
	return r.ResponseWriter.Write(p)
}

// keyOf extracts the unit key of a protocol message.
func keyOf(b []byte) string {
	var m struct{ Key string }
	if json.Unmarshal(b, &m) != nil {
		return ""
	}
	return m.Key
}

func (f *fleetTrace) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	p := r.URL.Path
	switch {
	case p == "/sweepd/claim":
		rec := &bodyRecorder{ResponseWriter: w}
		f.next.ServeHTTP(rec, r)
		end := time.Now()
		f.mu.Lock()
		defer f.mu.Unlock()
		if rec.status != http.StatusOK {
			f.emptyClaims++
			return
		}
		f.claims = append(f.claims, end.Sub(start))
		if i, ok := f.unitOf[keyOf(rec.body.Bytes())]; ok {
			f.units[i].claimStart, f.units[i].claimEnd = start, end
			f.tr.record("sweepd.claim", start, end, i)
		}
	case p == "/sweepd/done":
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		f.next.ServeHTTP(w, r)
		end := time.Now()
		f.mu.Lock()
		defer f.mu.Unlock()
		f.dones = append(f.dones, end.Sub(start))
		if i, ok := f.unitOf[keyOf(body)]; ok {
			f.units[i].doneStart, f.units[i].doneEnd = start, end
			f.tr.record("sweepd.done", start, end, i)
		}
	case p == "/sweepd/heartbeat":
		f.next.ServeHTTP(w, r)
		f.mu.Lock()
		f.heartbeats++
		f.mu.Unlock()
	case strings.HasPrefix(p, "/store/"):
		f.next.ServeHTTP(w, r)
		end := time.Now()
		f.mu.Lock()
		defer f.mu.Unlock()
		name := "runstore.http.other"
		switch r.Method {
		case http.MethodGet:
			f.gets = append(f.gets, end.Sub(start))
			name = "runstore.http.get"
		case http.MethodPut:
			f.puts = append(f.puts, end.Sub(start))
			name = "runstore.http.put"
		}
		i, ok := f.unitOf[p[strings.LastIndexByte(p, '/')+1:]]
		if !ok {
			i = -1
		} else {
			f.units[i].store += end.Sub(start)
		}
		f.tr.record(name, start, end, i)
	default:
		f.next.ServeHTTP(w, r)
	}
}

// perUnit derives each completed unit's phases: queue is dispatch to
// claim, exec is claim end to done arrival minus the unit's store calls,
// and overhead is the coordinator's claim-to-done wall minus exec.
func (f *fleetTrace) perUnit() (queue, exec, store, overhead []time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, u := range f.units {
		if u.claimEnd.IsZero() || u.doneStart.IsZero() {
			continue
		}
		e := u.doneStart.Sub(u.claimEnd) - u.store
		queue = append(queue, u.claimStart.Sub(u.dispatched))
		exec = append(exec, e)
		store = append(store, u.store)
		overhead = append(overhead, u.doneEnd.Sub(u.claimStart)-e)
	}
	return
}
