package freelist

import (
	"runtime"
	"sync"
	"testing"
)

// TestLastInFirstOut: Get returns entries newest first and reports an
// empty list once they are all taken.
func TestLastInFirstOut(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on the zero List found an entry")
	}
	for i := 1; i <= 3; i++ {
		l.Put(i)
	}
	for want := 3; want >= 1; want-- {
		if v, ok := l.Get(); !ok || v != want {
			t.Fatalf("Get = %d, %v; want %d, true", v, ok, want)
		}
	}
	if _, ok := l.Get(); ok {
		t.Fatal("Get on a drained List found an entry")
	}
}

// TestKeepsEntriesAcrossCollections: a garbage collection drops nothing,
// which is what makes allocation counts repeat from run to run.
func TestKeepsEntriesAcrossCollections(t *testing.T) {
	var l List[[]byte]
	buf := make([]byte, 64)
	l.Put(buf)
	runtime.GC()
	runtime.GC()
	got, ok := l.Get()
	if !ok || &got[0] != &buf[0] {
		t.Fatal("a collection dropped the entry")
	}
}

// TestConcurrentUse: every entry put from many goroutines comes back
// exactly once.
func TestConcurrentUse(t *testing.T) {
	var l List[int]
	const workers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Put(w*each + i)
				if v, ok := l.Get(); ok {
					l.Put(v)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for {
		v, ok := l.Get()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("entry %d came back twice", v)
		}
		seen[v] = true
	}
	if len(seen) != workers*each {
		t.Fatalf("got %d entries back, want %d", len(seen), workers*each)
	}
}

// TestKeyedSeparatesKeys: an entry put under one key is found only under
// that key.
func TestKeyedSeparatesKeys(t *testing.T) {
	var k Keyed[int, string]
	k.List(8).Put("eight")
	if _, ok := k.List(16).Get(); ok {
		t.Fatal("key 16 found an entry put under key 8")
	}
	if v, ok := k.List(8).Get(); !ok || v != "eight" {
		t.Fatalf("List(8).Get = %q, %v; want eight, true", v, ok)
	}
}
