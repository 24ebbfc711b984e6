package blockmap

import (
	"encoding/binary"
	"testing"
)

// applyOps replays an operation stream against both a Map and a builtin
// map, failing the moment they disagree. Each op consumes 9 bytes: one
// opcode byte and an 8-byte key (ignored by reset). Keys are used raw, so
// the fuzzer can craft colliding-slot and wrap-around patterns the hash
// would otherwise bury.
func applyOps(t *testing.T, data []byte) {
	t.Helper()
	var m Map[uint64]
	ref := map[uint64]uint64{}
	var step uint64
	for len(data) >= 9 {
		op := data[0] % 4
		key := binary.LittleEndian.Uint64(data[1:9])
		data = data[9:]
		step++
		switch op {
		case 0: // insert/update
			m.Put(key, step)
			ref[key] = step
		case 1: // delete
			m.Delete(key)
			delete(ref, key)
		case 2: // lookup only
		case 3: // reset
			m.Reset()
			clear(ref)
		}
		got, ok := m.Get(key)
		want, wok := ref[key]
		if ok != wok || got != want {
			t.Fatalf("step %d op %d key %#x: Get = (%d, %v), want (%d, %v)", step, op, key, got, ok, want, wok)
		}
		if m.Has(key) != wok {
			t.Fatalf("step %d key %#x: Has = %v, want %v", step, key, m.Has(key), wok)
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	seen := map[uint64]uint64{}
	m.ForEach(func(k, v uint64) {
		if _, dup := seen[k]; dup {
			t.Fatalf("ForEach yielded key %#x twice", k)
		}
		seen[k] = v
	})
	if len(seen) != len(ref) {
		t.Fatalf("ForEach yielded %d keys, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("ForEach value for %#x = %d, want %d", k, seen[k], v)
		}
	}
}

// FuzzMap cross-checks the open-addressed table against a builtin map over
// arbitrary insert/delete/lookup/reset streams.
func FuzzMap(f *testing.F) {
	key := func(k uint64) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], k)
		return b[:]
	}
	ops := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	put, del, get, reset := []byte{0}, []byte{1}, []byte{2}, []byte{3}
	// Seeds aimed at backward-shift deletion: clustered keys, delete in the
	// middle of a run, reinsert, and keys that wrap the table end.
	f.Add(ops(put, key(1), put, key(2), put, key(3), del, key(2), get, key(3)))
	f.Add(ops(put, key(0), put, key(8), put, key(16), del, key(0), get, key(8), get, key(16)))
	f.Add(ops(put, key(^uint64(0)), put, key(^uint64(1)), del, key(^uint64(0)), put, key(^uint64(0))))
	grow := put
	for k := uint64(0); k < 16; k++ {
		grow = ops(grow, key(k*8), put)
	}
	f.Add(grow[:len(grow)-1])
	// Reset a grown table, then reuse it: the old keys must be gone.
	f.Add(ops(grow, key(0), reset, key(0), get, key(8), put, key(8), del, key(8), get, key(16)))
	f.Fuzz(func(t *testing.T, data []byte) {
		applyOps(t, data)
	})
}

// TestMapBackwardShiftClusters replays deterministic streams that exercise
// the deletion edge cases (runs crossing the table boundary, deleting the
// head/middle/tail of a collision run) without needing the fuzzer.
func TestMapBackwardShiftClusters(t *testing.T) {
	// Dense cluster: many keys, delete every other one, then the rest.
	var stream []byte
	add := func(op byte, k uint64) {
		var b [9]byte
		b[0] = op
		binary.LittleEndian.PutUint64(b[1:], k)
		stream = append(stream, b[:]...)
	}
	for k := uint64(0); k < 64; k++ {
		add(0, k)
	}
	for k := uint64(0); k < 64; k += 2 {
		add(1, k)
	}
	for k := uint64(0); k < 64; k++ {
		add(2, k)
	}
	for k := uint64(1); k < 64; k += 2 {
		add(1, k)
		add(0, k+1000)
	}
	applyOps(t, stream)

	// Shrink back to empty and rebuild — exercises reuse after full drain.
	stream = stream[:0]
	for k := uint64(0); k < 40; k++ {
		add(0, k*0x1000100010001)
	}
	for k := uint64(0); k < 40; k++ {
		add(1, k*0x1000100010001)
	}
	for k := uint64(0); k < 40; k++ {
		add(0, k)
	}
	applyOps(t, stream)

	// Grow, reset, and rebuild on the kept storage with overlapping keys.
	stream = stream[:0]
	for k := uint64(0); k < 40; k++ {
		add(0, k*8)
	}
	add(3, 0)
	for k := uint64(0); k < 80; k++ {
		add(2, k*4)
		add(0, k*4)
	}
	for k := uint64(0); k < 80; k += 3 {
		add(1, k*4)
	}
	applyOps(t, stream)
}
