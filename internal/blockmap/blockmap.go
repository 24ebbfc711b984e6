// Package blockmap provides a small open-addressed hash table keyed by
// block address, replacing map[uint64]V on the coherence hot path. The sets
// it holds (busy transactions at a bank, eviction-buffer and deferred
// messages at a core) are tiny — usually zero to a handful of entries — but
// they are probed on every message, where Go's general-purpose map pays
// hashing and bucket overhead. The table uses linear probing with
// backward-shift deletion (no tombstones), so lookups scan at most a few
// contiguous slots and deletes leave no residue.
package blockmap

// Map is an open-addressed hash table from block address to V.
// The zero value is ready to use. Address 0 is a legal key (a separate
// occupancy array marks used slots rather than reserving a sentinel key).
type Map[V any] struct {
	keys []uint64
	vals []V
	used []bool
	n    int
}

const minCap = 8

// hash mixes the block address; multiplication by the 64-bit golden ratio
// spreads the low block-number bits across the table index.
func hash(addr uint64) uint64 { return addr * 0x9E3779B97F4A7C15 }

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

func (m *Map[V]) mask() uint64 { return uint64(len(m.keys) - 1) }

// slot returns the index holding addr, or -1.
func (m *Map[V]) slot(addr uint64) int {
	if m.n == 0 {
		return -1
	}
	mask := m.mask()
	for i := hash(addr) & mask; m.used[i]; i = (i + 1) & mask {
		if m.keys[i] == addr {
			return int(i)
		}
	}
	return -1
}

// Get returns the value stored for addr and whether it was present.
func (m *Map[V]) Get(addr uint64) (V, bool) {
	if i := m.slot(addr); i >= 0 {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// Has reports whether addr is present.
func (m *Map[V]) Has(addr uint64) bool { return m.slot(addr) >= 0 }

// Put stores v for addr, replacing any existing entry.
func (m *Map[V]) Put(addr uint64, v V) {
	if len(m.keys) == 0 || m.n >= len(m.keys)*3/4 {
		m.grow()
	}
	mask := m.mask()
	i := hash(addr) & mask
	for m.used[i] {
		if m.keys[i] == addr {
			m.vals[i] = v
			return
		}
		i = (i + 1) & mask
	}
	m.keys[i] = addr
	m.vals[i] = v
	m.used[i] = true
	m.n++
}

// Delete removes addr if present. Backward-shift deletion keeps every
// remaining entry reachable from its home slot without tombstones.
func (m *Map[V]) Delete(addr uint64) {
	i := m.slot(addr)
	if i < 0 {
		return
	}
	mask := m.mask()
	var zero V
	j := uint64(i)
	for {
		m.used[j] = false
		m.vals[j] = zero
		// Scan the rest of the probe cluster for an entry that hashed at or
		// before j and is now cut off from its home slot.
		k := j
		for {
			k = (k + 1) & mask
			if !m.used[k] {
				m.n--
				return
			}
			home := hash(m.keys[k]) & mask
			// Move k's entry into j if its home slot does not lie in the
			// (cyclic) open interval (j, k].
			if (j <= k && (home <= j || home > k)) || (j > k && home <= j && home > k) {
				break
			}
		}
		m.keys[j] = m.keys[k]
		m.vals[j] = m.vals[k]
		m.used[j] = true
		j = k
	}
}

// Reset removes every entry, keeping the storage: keys, values and used
// flags are zeroed, so no value stays reachable and the emptied table
// behaves like a fresh one that has already grown.
func (m *Map[V]) Reset() {
	clear(m.keys)
	clear(m.vals)
	clear(m.used)
	m.n = 0
}

func (m *Map[V]) grow() {
	newCap := minCap
	if len(m.keys) > 0 {
		newCap = len(m.keys) * 2
	}
	oldKeys, oldVals, oldUsed := m.keys, m.vals, m.used
	m.keys = make([]uint64, newCap)
	m.vals = make([]V, newCap)
	m.used = make([]bool, newCap)
	m.n = 0
	for i, u := range oldUsed {
		if u {
			m.Put(oldKeys[i], oldVals[i])
		}
	}
}

// ForEach calls fn for every entry in unspecified order. The table must not
// be mutated during the walk.
func (m *Map[V]) ForEach(fn func(addr uint64, v V)) {
	for i, u := range m.used {
		if u {
			fn(m.keys[i], m.vals[i])
		}
	}
}
