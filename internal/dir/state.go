package dir

// Checkpoint/restore implementations of proto.Tracker.SaveState/LoadState
// for the baseline directory organizations. Construction-time configuration
// (geometry, format, skew seed) is not serialized — the restoring side
// rebuilds the identical tracker and only the mutable state flows through
// the snapshot. Address-keyed maps are written in ascending key order so
// snapshot bytes are deterministic.

import (
	"tinydir/internal/cache"
	"tinydir/internal/proto"
	"tinydir/internal/snapshot"
)

func putEntryMap(w *snapshot.Writer, m map[uint64]proto.Entry) {
	w.Int(len(m))
	for _, k := range proto.SortedAddrs(m) {
		w.U64(k)
		proto.PutEntry(w, m[k])
	}
}

func getEntryMap(r *snapshot.Reader) map[uint64]proto.Entry {
	n := r.Int()
	m := make(map[uint64]proto.Entry, n)
	for i := 0; i < n; i++ {
		k := r.U64()
		m[k] = proto.GetEntry(r)
	}
	return m
}

// SaveState implements proto.Tracker.
func (d *Sparse) SaveState(w *snapshot.Writer) {
	cache.SaveState(w, &d.tags, proto.PutEntry)
	putEntryMap(w, d.overflow)
	w.U64(d.allocs)
	w.U64(d.victims)
	w.U64(d.overflows)
	w.U64(d.inflated)
}

// LoadState implements proto.Tracker.
func (d *Sparse) LoadState(r *snapshot.Reader) error {
	if err := cache.LoadState(r, &d.tags, proto.GetEntry); err != nil {
		return err
	}
	d.overflow = getEntryMap(r)
	d.allocs = r.U64()
	d.victims = r.U64()
	d.overflows = r.U64()
	d.inflated = r.U64()
	return r.Err()
}

// SaveState implements proto.Tracker.
func (s *SharedOnly) SaveState(w *snapshot.Writer) {
	if s.skewed != nil {
		cache.SaveSkewedState(w, s.skewed, proto.PutEntry)
	} else {
		cache.SaveState(w, &s.setAssoc, proto.PutEntry)
	}
	putEntryMap(w, s.unbounded)
	w.U64(s.allocs)
	w.U64(s.victims)
}

// LoadState implements proto.Tracker.
func (s *SharedOnly) LoadState(r *snapshot.Reader) error {
	var err error
	if s.skewed != nil {
		err = cache.LoadSkewedState(r, s.skewed, proto.GetEntry)
	} else {
		err = cache.LoadState(r, &s.setAssoc, proto.GetEntry)
	}
	if err != nil {
		return err
	}
	s.unbounded = getEntryMap(r)
	s.allocs = r.U64()
	s.victims = r.U64()
	return r.Err()
}

func putMgdEntry(w *snapshot.Writer, e mgdEntry) {
	w.Bool(e.region)
	proto.PutEntry(w, e.e)
}

func getMgdEntry(r *snapshot.Reader) mgdEntry {
	return mgdEntry{region: r.Bool(), e: proto.GetEntry(r)}
}

// SaveState implements proto.Tracker.
func (d *MgD) SaveState(w *snapshot.Writer) {
	cache.SaveState(w, &d.tags, putMgdEntry)
	putEntryMap(w, d.overflow)
	w.Int(len(d.regionOverflow))
	for _, k := range proto.SortedAddrs(d.regionOverflow) {
		w.U64(k)
		w.Int(d.regionOverflow[k])
	}
	w.U64(d.allocs)
	w.U64(d.victims)
	w.U64(d.regionAllocs)
	w.U64(d.regionEvicts)
}

// LoadState implements proto.Tracker.
func (d *MgD) LoadState(r *snapshot.Reader) error {
	if err := cache.LoadState(r, &d.tags, getMgdEntry); err != nil {
		return err
	}
	d.overflow = getEntryMap(r)
	n := r.Int()
	d.regionOverflow = make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		k := r.U64()
		d.regionOverflow[k] = r.Int()
	}
	d.allocs = r.U64()
	d.victims = r.U64()
	d.regionAllocs = r.U64()
	d.regionEvicts = r.U64()
	return r.Err()
}

// SaveState implements proto.Tracker.
func (d *Stash) SaveState(w *snapshot.Writer) {
	cache.SaveState(w, &d.tags, proto.PutEntry)
	w.Int(len(d.untracked))
	for _, k := range proto.SortedAddrs(d.untracked) {
		w.U64(k)
	}
	putEntryMap(w, d.overflow)
	w.U64(d.allocs)
	w.U64(d.victims)
	w.U64(d.drops)
	w.U64(d.broadcasts)
}

// LoadState implements proto.Tracker.
func (d *Stash) LoadState(r *snapshot.Reader) error {
	if err := cache.LoadState(r, &d.tags, proto.GetEntry); err != nil {
		return err
	}
	n := r.Int()
	d.untracked = make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		d.untracked[r.U64()] = true
	}
	d.overflow = getEntryMap(r)
	d.allocs = r.U64()
	d.victims = r.U64()
	d.drops = r.U64()
	d.broadcasts = r.U64()
	return r.Err()
}
