// Package intern provides a per-run block-address interning table: each
// distinct 64-bit block address is assigned a small dense id (int32, in
// first-touch order), so per-bank transaction state can live in dense
// id-indexed storage (see blockmap.IDMap) instead of re-hashing the full
// address on every probe.
//
// Lifetime rules: ids are per run and only meaningful against the Table
// that issued them. Within a run ids are never recycled — the table grows
// monotonically with the distinct-block footprint of the trace, which is
// bounded and small compared to the structures the ids index. Between
// runs a table may be Reset and handed to the next machine: ids restart
// at 0 and are again assigned in first-touch order, exactly as a fresh
// table would assign them. First-touch assignment is deterministic
// because the simulator itself is: the same trace and configuration
// produce the same event order, hence the same id for every address.
// Snapshots store addresses, never ids, so a restored machine may
// legitimately build a different id assignment without changing any
// observable behavior or serialized bytes.
package intern

// Table maps block addresses to dense ids and back. The zero value is
// ready to use.
type Table struct {
	keys []uint64
	ids  []int32
	used []bool
	// addrs is the inverse mapping: addrs[id] = address.
	addrs []uint64
}

const minCap = 16

// hash mixes the block address (same multiplicative mix as blockmap).
func hash(addr uint64) uint64 { return addr * 0x9E3779B97F4A7C15 }

// Len returns the number of interned addresses (= the next id to assign).
func (t *Table) Len() int { return len(t.addrs) }

// ID returns the dense id for addr, interning it on first touch.
func (t *Table) ID(addr uint64) int32 {
	if len(t.keys) == 0 || len(t.addrs) >= len(t.keys)*3/4 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := hash(addr) & mask
	for t.used[i] {
		if t.keys[i] == addr {
			return t.ids[i]
		}
		i = (i + 1) & mask
	}
	id := int32(len(t.addrs))
	t.keys[i] = addr
	t.ids[i] = id
	t.used[i] = true
	t.addrs = append(t.addrs, addr)
	return id
}

// Lookup returns the id for addr without interning, and whether it was
// present.
func (t *Table) Lookup(addr uint64) (int32, bool) {
	if len(t.addrs) == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := hash(addr) & mask; t.used[i]; i = (i + 1) & mask {
		if t.keys[i] == addr {
			return t.ids[i], true
		}
	}
	return 0, false
}

// Reset empties the table for reuse by a later run, keeping its storage:
// ids restart at 0 in first-touch order, and every Lookup misses until
// the address is interned again.
func (t *Table) Reset() {
	clear(t.used)
	t.addrs = t.addrs[:0]
}

// Addr returns the address interned as id. It panics on an id this table
// never issued.
func (t *Table) Addr(id int32) uint64 { return t.addrs[id] }

func (t *Table) grow() {
	newCap := minCap
	if len(t.keys) > 0 {
		newCap = len(t.keys) * 2
	}
	oldKeys, oldIDs, oldUsed := t.keys, t.ids, t.used
	t.keys = make([]uint64, newCap)
	t.ids = make([]int32, newCap)
	t.used = make([]bool, newCap)
	mask := uint64(newCap - 1)
	for i, u := range oldUsed {
		if !u {
			continue
		}
		j := hash(oldKeys[i]) & mask
		for t.used[j] {
			j = (j + 1) & mask
		}
		t.keys[j] = oldKeys[i]
		t.ids[j] = oldIDs[i]
		t.used[j] = true
	}
}
