package blockmap

// IDMap is a sparse-set map keyed by small dense ids (see internal/intern):
// a lazily grown direct-index array into a compact entry list. Every
// operation is a single array access — no hashing, no probing — which is
// what the interning table buys the per-bank busy tables over Map. The
// zero value is ready to use.
type IDMap[V any] struct {
	// sparse[id] is the index of id's entry in ids/vals, or -1.
	sparse []int32
	ids    []int32
	vals   []V
}

// Len returns the number of entries.
func (m *IDMap[V]) Len() int { return len(m.ids) }

func (m *IDMap[V]) index(id int32) int32 {
	if int(id) >= len(m.sparse) {
		return -1
	}
	return m.sparse[id]
}

// Get returns the value stored for id and whether it was present.
func (m *IDMap[V]) Get(id int32) (V, bool) {
	if i := m.index(id); i >= 0 {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// Has reports whether id is present.
func (m *IDMap[V]) Has(id int32) bool { return m.index(id) >= 0 }

// Put stores v for id, replacing any existing entry.
func (m *IDMap[V]) Put(id int32, v V) {
	for int(id) >= len(m.sparse) {
		if cap(m.sparse) > len(m.sparse) {
			m.sparse = m.sparse[:len(m.sparse)+1]
			m.sparse[len(m.sparse)-1] = -1
			continue
		}
		grown := make([]int32, len(m.sparse), 2*len(m.sparse)+16)
		copy(grown, m.sparse)
		m.sparse = grown
	}
	if i := m.sparse[id]; i >= 0 {
		m.vals[i] = v
		return
	}
	m.sparse[id] = int32(len(m.ids))
	m.ids = append(m.ids, id)
	m.vals = append(m.vals, v)
}

// Delete removes id if present, moving the last entry into the vacated
// slot (order is not preserved; snapshot code sorts by address anyway).
func (m *IDMap[V]) Delete(id int32) {
	i := m.index(id)
	if i < 0 {
		return
	}
	last := int32(len(m.ids) - 1)
	m.ids[i] = m.ids[last]
	m.vals[i] = m.vals[last]
	m.sparse[m.ids[i]] = i
	var zero V
	m.vals[last] = zero
	m.ids = m.ids[:last]
	m.vals = m.vals[:last]
	m.sparse[id] = -1
}

// Reset removes every entry, keeping the storage: the live ids are marked
// absent in the direct-index array, and the entry list is truncated with
// its values zeroed so none stays reachable.
func (m *IDMap[V]) Reset() {
	for _, id := range m.ids {
		m.sparse[id] = -1
	}
	clear(m.vals)
	m.ids = m.ids[:0]
	m.vals = m.vals[:0]
}

// At returns the i-th entry (0 <= i < Len()) in unspecified order. It lets
// callers scan a small map without closure overhead; the order is only
// stable while the map is not mutated.
func (m *IDMap[V]) At(i int) (int32, V) { return m.ids[i], m.vals[i] }

// ForEach calls fn for every entry in unspecified order. The map must not
// be mutated during the walk.
func (m *IDMap[V]) ForEach(fn func(id int32, v V)) {
	for i, id := range m.ids {
		fn(id, m.vals[i])
	}
}
