package core

// Checkpoint/restore implementations of proto.Tracker.SaveState/LoadState
// for the in-LLC and tiny-directory trackers. The in-LLC scheme keeps its
// tracking state inside LLC line metadata (serialized by the bank with the
// LLC array), so only its counters travel here; the tiny directory also
// owns its entry array, generation machinery and spill-window state.

import (
	"tinydir/internal/cache"
	"tinydir/internal/proto"
	"tinydir/internal/sim"
	"tinydir/internal/snapshot"
)

// SaveState implements proto.Tracker.
func (t *InLLC) SaveState(w *snapshot.Writer) {
	w.U64(t.stateWrites)
	w.U64(t.reconMsgs)
	for i := range t.catAccess {
		w.U64(t.catAccess[i])
	}
	for i := range t.catBlocks {
		w.U64(t.catBlocks[i])
	}
}

// LoadState implements proto.Tracker.
func (t *InLLC) LoadState(r *snapshot.Reader) error {
	t.stateWrites = r.U64()
	t.reconMsgs = r.U64()
	for i := range t.catAccess {
		t.catAccess[i] = r.U64()
	}
	for i := range t.catBlocks {
		t.catBlocks[i] = r.U64()
	}
	return r.Err()
}

func putTinyEntry(w *snapshot.Writer, e tinyEntry) {
	proto.PutEntry(w, e.e)
	w.U64(uint64(e.strac))
	w.U64(uint64(e.oac))
	w.U64(uint64(e.lastT))
	w.Bool(e.r)
	w.Bool(e.ep)
}

func getTinyEntry(r *snapshot.Reader) tinyEntry {
	return tinyEntry{
		e:     proto.GetEntry(r),
		strac: uint8(r.U64()),
		oac:   uint8(r.U64()),
		lastT: uint16(r.U64()),
		r:     r.Bool(),
		ep:    r.Bool(),
	}
}

// SaveState implements proto.Tracker.
func (t *Tiny) SaveState(w *snapshot.Writer) {
	cache.SaveState(w, &t.tags, putTinyEntry)
	w.U64(t.accA)
	w.U64(t.accB)
	w.U64(uint64(t.nextGenEnd))
	w.Int(t.spillIdx)
	w.U64(t.win.accesses)
	w.U64(t.win.sharedReads)
	w.U64(t.win.accSample)
	w.U64(t.win.missSample)
	w.U64(t.win.accOther)
	w.U64(t.win.missOther)
	w.U64(t.hits)
	w.U64(t.allocs)
	w.U64(t.evictions)
	w.U64(t.spills)
	w.U64(t.spillSaved)
	w.U64(t.stateWrites)
	for i := range t.catAccess {
		w.U64(t.catAccess[i])
	}
}

// LoadState implements proto.Tracker.
func (t *Tiny) LoadState(r *snapshot.Reader) error {
	if err := cache.LoadState(r, &t.tags, getTinyEntry); err != nil {
		return err
	}
	t.accA = r.U64()
	t.accB = r.U64()
	t.nextGenEnd = sim.Time(r.U64())
	t.spillIdx = r.Int()
	t.win.accesses = r.U64()
	t.win.sharedReads = r.U64()
	t.win.accSample = r.U64()
	t.win.missSample = r.U64()
	t.win.accOther = r.U64()
	t.win.missOther = r.U64()
	t.hits = r.U64()
	t.allocs = r.U64()
	t.evictions = r.U64()
	t.spills = r.U64()
	t.spillSaved = r.U64()
	t.stateWrites = r.U64()
	for i := range t.catAccess {
		t.catAccess[i] = r.U64()
	}
	return r.Err()
}
