package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/testutil"
)

func entry(abbr string) profileEntry {
	return profileEntry{abbr: abbr, fingerprint: "fp", profile: &core.Profile{}}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := newShardedLRU(2, 1) // one shard so recency is global
	l.add("a", entry("a"))
	l.add("b", entry("b"))
	if _, ok := l.get("a"); !ok { // touch a: b becomes the eviction victim
		t.Fatal("a missing")
	}
	if evicted := l.add("c", entry("c")); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if _, ok := l.get("b"); ok {
		t.Error("b survived, but it was the least recently used")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := l.get(key); !ok {
			t.Errorf("%s missing after eviction of b", key)
		}
	}
}

func TestLRURefreshDoesNotEvict(t *testing.T) {
	l := newShardedLRU(2, 1)
	l.add("a", entry("a"))
	l.add("b", entry("b"))
	if evicted := l.add("a", entry("a2")); evicted != 0 {
		t.Fatalf("refresh evicted %d entries", evicted)
	}
	e, ok := l.get("a")
	if !ok || e.abbr != "a2" {
		t.Errorf("refresh did not replace the entry: %+v ok=%v", e, ok)
	}
	if l.len() != 2 {
		t.Errorf("len = %d, want 2", l.len())
	}
}

func TestLRUShardCapacity(t *testing.T) {
	// 8 entries over 4 shards: each shard holds at most 2, so inserting many
	// keys never grows past the total capacity.
	l := newShardedLRU(8, 4)
	for i := 0; i < 100; i++ {
		l.add(fmt.Sprintf("key-%d", i), entry("x"))
	}
	if l.len() > 8 {
		t.Errorf("len = %d, want <= 8", l.len())
	}
}

// TestLRUHoldsExactCapacity checks that a full LRU holds exactly the
// capacity it was built with, whether or not the shard count divides it.
func TestLRUHoldsExactCapacity(t *testing.T) {
	for _, n := range []int{1, 8, 17, 40, 512} {
		l := newShardedLRU(n, lruShards)
		for i := 0; i < 20*n; i++ {
			l.add(fmt.Sprintf("key-%d", i), entry("x"))
		}
		if got := l.len(); got != n {
			t.Errorf("capacity %d: len = %d after %d inserts", n, got, 20*n)
		}
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	l := newShardedLRU(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", (g*7+i)%40)
				if e, ok := l.get(key); ok && e.abbr != key {
					t.Errorf("key %s returned entry for %s", key, e.abbr)
				}
				l.add(key, profileEntry{abbr: key, fingerprint: "fp", profile: &core.Profile{}})
			}
		}(g)
	}
	wg.Wait()
}
