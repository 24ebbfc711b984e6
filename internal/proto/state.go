package proto

// Shared snapshot codecs for the protocol vocabulary. Every tracker and the
// home banks serialize Entry/LLCMeta values; keeping one canonical encoding
// here means a layout change is a single-file edit plus a format version
// bump.

import (
	"fmt"
	"sort"

	"tinydir/internal/bitvec"
	"tinydir/internal/snapshot"
)

// SortedAddrs returns m's keys in ascending order. Builtin map iteration is
// randomized, so every address-keyed map must be serialized through this to
// keep snapshot bytes deterministic.
func SortedAddrs[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// PutVec writes a sharer bitvector.
func PutVec(w *snapshot.Writer, v bitvec.Vec) {
	w.Int(v.Len())
	for _, word := range v.Words() {
		w.U64(word)
	}
}

// GetVec reads a sharer bitvector. A zero-length vector decodes to the zero
// Vec (indistinguishable from bitvec.New(0) for every operation); one wider
// than bitvec.MaxBits fails the reader.
func GetVec(r *snapshot.Reader) bitvec.Vec {
	n := r.Int()
	if n <= 0 {
		return bitvec.Vec{}
	}
	if n > bitvec.MaxBits {
		r.Fail(fmt.Errorf("snapshot: %d-bit sharer vector exceeds %d bits", n, bitvec.MaxBits))
		return bitvec.Vec{}
	}
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = r.U64()
	}
	return bitvec.FromWords(n, words)
}

// PutEntry writes a tracking entry.
func PutEntry(w *snapshot.Writer, e Entry) {
	w.Int(int(e.State))
	w.Int(e.Owner)
	PutVec(w, e.Sharers)
	w.Bool(e.Dirty)
}

// GetEntry reads a tracking entry.
func GetEntry(r *snapshot.Reader) Entry {
	return Entry{
		State:   State(r.Int()),
		Owner:   r.Int(),
		Sharers: GetVec(r),
		Dirty:   r.Bool(),
	}
}

// PutLLCMeta writes one LLC line's metadata.
func PutLLCMeta(w *snapshot.Writer, m LLCMeta) {
	w.Bool(m.Dirty)
	w.Bool(m.Corrupted)
	w.Bool(m.Spill)
	PutEntry(w, m.Track)
	w.U64(uint64(m.STRAC))
	w.U64(uint64(m.OAC))
	w.Bool(m.Lengthened)
	w.Int(m.MaxSharers)
	w.U64(uint64(m.StatSharedReads))
	w.U64(uint64(m.StatAccesses))
}

// GetLLCMeta reads one LLC line's metadata.
func GetLLCMeta(r *snapshot.Reader) LLCMeta {
	return LLCMeta{
		Dirty:           r.Bool(),
		Corrupted:       r.Bool(),
		Spill:           r.Bool(),
		Track:           GetEntry(r),
		STRAC:           uint8(r.U64()),
		OAC:             uint8(r.U64()),
		Lengthened:      r.Bool(),
		MaxSharers:      r.Int(),
		StatSharedReads: uint32(r.U64()),
		StatAccesses:    uint32(r.U64()),
	}
}
