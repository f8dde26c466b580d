package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// complete returns key's complete entry without touching its recency.
func (t *profileTable) complete(key string) (*tableEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	return e, ok && e.el != nil
}

// len returns how many complete entries the table holds.
func (t *profileTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recency.Len()
}

func newTestTable(capacity int) *profileTable {
	return newProfileTable(capacity, telemetry.NewCounters())
}

// put files key, with key as its workload identity, as a complete entry
// through a led lookup and finish.
func put(t *testing.T, tb *profileTable, key string) {
	t.Helper()
	e, o := tb.lookup(key, key, "fp")
	if o != lead {
		t.Fatalf("put %s: outcome %d, want lead", key, o)
	}
	tb.finish(e, &core.Profile{}, nil)
}

// touch looks key up and requires a hit, which marks it most recently used.
func touch(t *testing.T, tb *profileTable, key string) {
	t.Helper()
	if _, o := tb.lookup(key, key, "fp"); o != hit {
		t.Fatalf("touch %s: outcome %d, want hit", key, o)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	tb := newTestTable(2)
	put(t, tb, "a")
	put(t, tb, "b")
	touch(t, tb, "a") // b becomes the eviction victim
	put(t, tb, "c")
	if got := tb.ctr.Get(telemetry.CtrServeLRUEvictions); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if _, ok := tb.complete("b"); ok {
		t.Error("b survived, but it was the least recently used")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := tb.complete(key); !ok {
			t.Errorf("%s missing after eviction of b", key)
		}
	}
}

// TestLRURefreshDoesNotEvict — replacing a complete entry (here a
// mismatched one, through a new flight) refreshes it in place: nothing is
// evicted and the new identity is what the table holds.
func TestLRURefreshDoesNotEvict(t *testing.T) {
	tb := newTestTable(2)
	put(t, tb, "a")
	put(t, tb, "b")
	e, o := tb.lookup("a", "a2", "fp")
	if o != lead {
		t.Fatalf("outcome %d, want lead for a mismatched entry", o)
	}
	tb.finish(e, &core.Profile{}, nil)
	if got := tb.ctr.Get(telemetry.CtrServeLRUEvictions); got != 0 {
		t.Fatalf("refresh evicted %d entries", got)
	}
	if got, ok := tb.complete("a"); !ok || got.abbr != "a2" {
		t.Errorf("refresh did not replace the entry: %+v ok=%v", got, ok)
	}
	if tb.len() != 2 {
		t.Errorf("len = %d, want 2", tb.len())
	}
}

// TestLRUHoldsExactCapacity checks that a full table holds exactly the
// capacity it was built with.
func TestLRUHoldsExactCapacity(t *testing.T) {
	for _, n := range []int{1, 8, 17, 40, 512} {
		tb := newTestTable(n)
		for i := 0; i < 20*n; i++ {
			put(t, tb, fmt.Sprintf("key-%d", i))
		}
		if got := tb.len(); got != n {
			t.Errorf("capacity %d: len = %d after %d inserts", n, got, 20*n)
		}
		if got := tb.ctr.Get(telemetry.CtrServeLRUEvictions); got != int64(19*n) {
			t.Errorf("capacity %d: evictions = %d, want %d", n, got, 19*n)
		}
	}
}

// TestLRUEvictsExactLRUAtServerCapacity builds the table the way New does,
// at the 32 entries the serve benchmark runs with: after the oldest key is
// touched, one more insert evicts the least recently used key, never the
// touched one. A table split into independent shards fails this, since the
// new key's shard evicts its own oldest entry.
func TestLRUEvictsExactLRUAtServerCapacity(t *testing.T) {
	s, err := New(Options{LRUEntries: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		put(t, s.table, fmt.Sprintf("key-%d", i))
	}
	touch(t, s.table, "key-0")
	put(t, s.table, "key-32")
	if _, ok := s.table.complete("key-0"); !ok {
		t.Error("key-0 was evicted right after it was touched")
	}
	if _, ok := s.table.complete("key-1"); ok {
		t.Error("key-1 survived, but it was the least recently used")
	}
	if got := s.table.len(); got != 32 {
		t.Errorf("len = %d, want 32", got)
	}
}

// TestLRUConcurrentAccess — many goroutines look up, lead, join and evict
// over more keys than the table holds. Every outcome serves the identity it
// was asked for, the funnel balances, and no goroutine leaks.
func TestLRUConcurrentAccess(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	tb := newTestTable(32)
	const goroutines, rounds = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("key-%d", (g*7+i)%40)
				e, o := tb.lookup(key, key, "fp")
				if o == lead {
					tb.finish(e, &core.Profile{}, nil)
				}
				<-e.done
				if e.abbr != key || e.profile == nil {
					t.Errorf("key %s returned entry for %s (profile %p)", key, e.abbr, e.profile)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := tb.len(); got != 32 {
		t.Errorf("len = %d, want 32", got)
	}
	get := tb.ctr.Get
	hits, misses := get(telemetry.CtrServeLRUHits), get(telemetry.CtrServeLRUMisses)
	if hits+misses != goroutines*rounds {
		t.Errorf("hits (%d) + misses (%d) != %d lookups", hits, misses, goroutines*rounds)
	}
	if leaders, shared := get(telemetry.CtrServeFlightLeaders), get(telemetry.CtrServeFlightShared); leaders+shared != misses {
		t.Errorf("leaders (%d) + shared (%d) != %d misses", leaders, shared, misses)
	}
}

// TestFlightCollapsesConcurrentCallers — with the study blocked, any number
// of callers of one key produce exactly one leader; every caller gets the
// same result pointer. The leak check proves every waiter exits once the
// flight completes.
func TestFlightCollapsesConcurrentCallers(t *testing.T) {
	defer testutil.CheckLeaks(t)()
	tb := newTestTable(4)
	release := make(chan struct{})
	want := &core.Profile{}

	const callers = 50
	var leaders atomic.Int64
	var wg sync.WaitGroup
	results := make([]*core.Profile, callers)
	started := make(chan struct{}, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, o := tb.lookup("key", "key", "fp")
			started <- struct{}{}
			if o == lead {
				leaders.Add(1)
				<-release
				tb.finish(e, want, nil)
			}
			<-e.done
			results[i] = e.profile
		}(i)
	}
	for i := 0; i < callers; i++ {
		<-started // every caller has joined the flight before release
	}
	close(release)
	wg.Wait()

	if got := leaders.Load(); got != 1 {
		t.Errorf("leaders = %d, want exactly 1", got)
	}
	if got := tb.ctr.Get(telemetry.CtrServeFlightShared); got != callers-1 {
		t.Errorf("shared = %d, want %d", got, callers-1)
	}
	for i, p := range results {
		if p != want {
			t.Fatalf("caller %d got %p, want the shared result %p", i, p, want)
		}
	}
}

// TestFlightKeyRetiresAfterCompletion — once a study completes, its key is
// no longer in flight: the next caller hits the stored result and leads
// nothing, until eviction frees the key for a fresh study.
func TestFlightKeyRetiresAfterCompletion(t *testing.T) {
	tb := newTestTable(1)
	put(t, tb, "key")
	first, _ := tb.complete("key")
	e, o := tb.lookup("key", "key", "fp")
	if o != hit || e != first {
		t.Fatalf("lookup after completion: outcome %d, want a hit on the completed entry", o)
	}
	put(t, tb, "other") // evicts key
	put(t, tb, "key")
	if again, _ := tb.complete("key"); again.profile == first.profile {
		t.Error("a study after eviction shared the evicted result")
	}
}

// TestFlightKeyRetiresAfterError — a failed study hands its error to every
// waiter and frees its key: the next caller leads a fresh study.
func TestFlightKeyRetiresAfterError(t *testing.T) {
	tb := newTestTable(4)
	e, _ := tb.lookup("key", "key", "fp")
	waiter, o := tb.lookup("key", "key", "fp")
	if o != join || waiter != e {
		t.Fatalf("second caller: outcome %d, want to join the first flight", o)
	}
	boom := errors.New("boom")
	tb.finish(e, nil, boom)
	<-waiter.done
	if !errors.Is(waiter.err, boom) {
		t.Errorf("waiter err = %v, want %v", waiter.err, boom)
	}
	if next, o := tb.lookup("key", "key", "fp"); o != lead || next == e {
		t.Errorf("lookup after a failed study: outcome %d, want to lead a fresh one", o)
	}
	if got := tb.len(); got != 0 {
		t.Errorf("len = %d, want 0: a failed study is never stored", got)
	}
}

// TestFlightIndependentKeys — distinct keys never share an entry.
func TestFlightIndependentKeys(t *testing.T) {
	tb := newTestTable(4)
	a, oa := tb.lookup("a", "a", "fp")
	b, ob := tb.lookup("b", "b", "fp")
	if oa != lead || ob != lead {
		t.Error("both distinct keys must lead")
	}
	if a == b {
		t.Error("distinct keys shared an entry")
	}
}
