package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"tinydir/internal/runstore"
)

// span is one timed call into a layer, recorded around the call from the
// benchmark's side. Spans of one unit share its index; parent is the
// enclosing span's index (-1 at the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Phase  string `json:"phase"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends. The serial path
// nests spans through begin/end; HTTP handler goroutines add detached
// spans with record.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 when none
	unit  int
	phase string
}

func newTracer() *tracer { return &tracer{t0: time.Now(), open: -1, phase: phaseMain} }

// Phases separate the workload's own traced pass from the probes that
// cover layers its path does not reach.
const (
	phaseMain  = "main"
	phaseProbe = "probe"
)

func (t *tracer) setUnit(unit int, phase string) {
	t.mu.Lock()
	t.unit, t.phase = unit, phase
	t.mu.Unlock()
}

func (t *tracer) begin(name string) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: t.open, Unit: t.unit, Phase: t.phase})
	t.open = len(t.spans) - 1
	return t.open
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.open = t.spans[id].Parent
}

func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// record adds a detached span for unit.
func (t *tracer) record(name string, start, end time.Time, unit int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Parent: -1, Unit: unit, Phase: t.phase})
}

// durations returns the durations of every closed span named name in
// phase ("" = any phase), in recording order.
func (t *tracer) durations(name, phase string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (phase == "" || s.Phase == phase) && s.End >= 0 {
			ds = append(ds, s.dur())
		}
	}
	return ds
}

// spanSummary is one span name's totals; self time is a span's duration
// minus the part its child spans cover.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]spanSummary{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		key := s.Phase + "/" + s.Name
		sum := out[key]
		sum.Count++
		sum.TotalMS += ms(s.dur())
		sum.SelfMS += ms(s.dur() - child[i])
		out[key] = sum
	}
	return out
}

// write dumps the spans and their per-name summary as JSON to path.
func (t *tracer) write(path string) error {
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Summary map[string]spanSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}{sum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedBackend times Get and Put on one layer of a store stack. Placed
// between layers, each instance exposes the one below through Unwrap.
type timedBackend struct {
	runstore.Backend
	layer string
	tr    *tracer
}

func (b *timedBackend) Unwrap() runstore.Backend { return b.Backend }

// Get names a miss apart from a hit: a cold unit's checkpoint lookup
// misses in microseconds, a warm one reads megabytes.
func (b *timedBackend) Get(kind, key string) ([]byte, bool, error) {
	id := b.tr.begin("runstore." + b.layer + ".get_" + kindName(kind))
	data, ok, err := b.Backend.Get(kind, key)
	b.tr.end(id)
	if !ok {
		b.tr.rename(id, "runstore."+b.layer+".miss_"+kindName(kind))
	}
	return data, ok, err
}

func (b *timedBackend) Put(kind, key string, data []byte, replace bool) error {
	id := b.tr.begin("runstore." + b.layer + ".put_" + kindName(kind))
	defer b.tr.end(id)
	return b.Backend.Put(kind, key, data, replace)
}

// kindName shortens the artifact kinds; the integrity layer's digest and
// quarantine kinds are "meta".
func kindName(kind string) string {
	switch kind {
	case runstore.KindResults:
		return "result"
	case runstore.KindCheckpoints:
		return "ckpt"
	}
	return "meta"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
