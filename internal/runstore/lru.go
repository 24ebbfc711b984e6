package runstore

import (
	"container/list"
	"sync"
)

// LRU is an in-memory, size-bounded read-through/write-through tier in
// front of any Backend. Many workers sharing one HTTP store each keep a
// hot working set (the 2x baseline results every figure needs) local
// instead of refetching it.
//
// Only positive entries are cached — a miss always consults the inner
// backend, so results landing there from other writers become visible
// immediately. Writes go to the inner backend first; the cache is only
// updated after the inner Put succeeds, so the tier never serves bytes
// the durable store refused.
type LRU struct {
	inner Backend
	max   int64 // byte budget over cached values

	mu    sync.Mutex
	size  int64
	ll    *list.List               // front = most recently used
	items map[string]*list.Element // composite (kind, key) -> element

	hits, misses uint64 // Get answered from / past the cache
}

type lruEntry struct {
	ck   string
	data []byte
}

// NewLRU wraps inner with a cache tier holding at most maxBytes of
// values (maxBytes <= 0 disables caching entirely; the tier degrades to
// a transparent proxy that still counts misses).
func NewLRU(inner Backend, maxBytes int64) *LRU {
	return &LRU{inner: inner, max: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

func cacheKey(kind, key string) string { return kind + "/" + key }

// Counters returns the cache's hit and miss counts, which a fleet
// worker reports to the coordinator in its WorkerReport.
func (l *LRU) Counters() (hits, misses uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hits, l.misses
}

// Get implements Backend.
func (l *LRU) Get(kind, key string) ([]byte, bool, error) {
	ck := cacheKey(kind, key)
	l.mu.Lock()
	if el, ok := l.items[ck]; ok {
		l.ll.MoveToFront(el)
		l.hits++
		data := el.Value.(*lruEntry).data
		l.mu.Unlock()
		return data, true, nil
	}
	l.misses++
	l.mu.Unlock()
	data, ok, err := l.inner.Get(kind, key)
	if err != nil || !ok {
		return data, ok, err
	}
	l.insert(ck, data)
	return data, true, nil
}

// Put implements Backend: write-through, cache updated only on success.
func (l *LRU) Put(kind, key string, data []byte, replace bool) error {
	if err := l.inner.Put(kind, key, data, replace); err != nil {
		return err
	}
	l.insert(cacheKey(kind, key), data)
	return nil
}

// insert adds or refreshes a cache entry, evicting from the cold end
// until the budget holds. A value larger than the whole budget is not
// cached at all.
func (l *LRU) insert(ck string, data []byte) {
	if l.max <= 0 || int64(len(data)) > l.max {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[ck]; ok {
		e := el.Value.(*lruEntry)
		l.size += int64(len(data)) - int64(len(e.data))
		e.data = data
		l.ll.MoveToFront(el)
	} else {
		l.items[ck] = l.ll.PushFront(&lruEntry{ck: ck, data: data})
		l.size += int64(len(data))
	}
	for l.size > l.max {
		el := l.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*lruEntry)
		l.ll.Remove(el)
		delete(l.items, e.ck)
		l.size -= int64(len(e.data))
	}
}

func (l *LRU) drop(ck string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[ck]; ok {
		l.ll.Remove(el)
		delete(l.items, ck)
		l.size -= int64(len(el.Value.(*lruEntry).data))
	}
}

// Keys implements Backend.
func (l *LRU) Keys(kind string) ([]Info, error) { return l.inner.Keys(kind) }

// Delete implements Backend.
func (l *LRU) Delete(kind, key string) error {
	l.drop(cacheKey(kind, key))
	return l.inner.Delete(kind, key)
}
