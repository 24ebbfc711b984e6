// Package freelist recycles per-run storage across the machines a process
// builds. A List keeps every entry it is given until one is taken again:
// unlike sync.Pool it never hands idle storage to the garbage collector
// and never strands entries on one processor, so whether a Get finds an
// entry depends only on the Puts and Gets made before it, and the
// allocation count of a sweep depends only on the runs it made.
//
// What a List holds is bounded by its callers: it never holds more
// entries than were ever out at once.
package freelist

import "sync"

// List is a last-in first-out free list of T values, safe for concurrent
// use. Entries are stored by value, so putting a struct of slice headers
// allocates nothing once the list has grown. The zero value is ready to
// use.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get removes and returns the most recently put entry, or reports false
// when the list is empty.
func (l *List[T]) Get() (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var zero T
	n := len(l.items)
	if n == 0 {
		return zero, false
	}
	v := l.items[n-1]
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return v, true
}

// Put adds v to the list for a later Get.
func (l *List[T]) Put(v T) {
	l.mu.Lock()
	l.items = append(l.items, v)
	l.mu.Unlock()
}

// Keyed is a set of Lists, one per key, each made on first use: storage
// that only fits a caller of the same shape (a cache geometry, a core
// count) goes back to the list of that shape. The zero value is ready to
// use, and it is safe for concurrent use.
type Keyed[K comparable, T any] struct {
	mu    sync.Mutex
	lists map[K]*List[T]
}

// List returns k's list, making it on first use.
func (m *Keyed[K, T]) List(k K) *List[T] {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.lists[k]
	if l == nil {
		if m.lists == nil {
			m.lists = make(map[K]*List[T])
		}
		l = new(List[T])
		m.lists[k] = l
	}
	return l
}
