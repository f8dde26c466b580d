package server

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// profileTable is the server's one table of profiles, keyed by profileKey.
// An entry is either in flight — its leader is running the study and done
// is still open — or complete, with done closed and the entry on one exact
// recency list of at most capacity entries. One mutex guards the map and
// the list, so the lookup that finds no entry files the in-flight one
// before any other lookup can see the key: a key has one leader at a time
// by construction. A failed study is deleted, so the next asker leads a
// fresh one.
//
// Studies run detached from any request's context: a waiter whose deadline
// expires walks away with 504 while the study completes and lands in the
// table for the next asker, so a storm of impatient clients cannot
// re-trigger the same simulation.
type profileTable struct {
	capacity int                 // complete entries kept; immutable after construction
	ctr      *telemetry.Counters // the serve funnel the table counts into
	leaders  sync.WaitGroup      // studies in flight; Server.Shutdown waits on it

	mu      sync.Mutex
	entries map[string]*tableEntry // guarded by mu
	recency *list.List             // guarded by mu; complete entries, front = most recently used
}

// tableEntry is one profile, in flight or complete, together with the
// identity it is computed for. The identity is stored redundantly with the
// key on purpose: lookup re-checks it, so a bookkeeping bug that files an
// entry under the wrong key surfaces as a counted mismatch instead of
// silently serving one workload's profile as another's. The load test
// asserts the mismatch count stays zero.
//
// profile and err are not mutex-guarded: the leader writes them before it
// completes the entry, and readers read them only after <-done or after
// finding el set under mu.
type tableEntry struct {
	key         string
	abbr        string        // workload abbreviation the profile belongs to
	fingerprint string        // core.Fingerprint of the device configuration
	done        chan struct{} // closed when profile and err are final
	el          *list.Element // guarded by mu; non-nil once complete
	profile     *core.Profile
	err         error
}

// outcome is what one lookup found.
type outcome int

const (
	hit  outcome = iota // a complete entry: serve it
	join                // an entry in flight: wait on its done
	lead                // a new entry in flight: the caller runs its study and calls finish
)

func newProfileTable(capacity int, ctr *telemetry.Counters) *profileTable {
	return &profileTable{
		capacity: capacity,
		ctr:      ctr,
		entries:  make(map[string]*tableEntry),
		recency:  list.New(),
	}
}

// lookup resolves key under one lock and counts the outcome on the serve
// funnel. A hit marks the entry most recently used. A complete entry whose
// identity disagrees with (abbr, fp) is never served: it is counted as a
// mismatch and replaced by a new flight.
func (t *profileTable) lookup(key, abbr, fp string) (*tableEntry, outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		switch {
		case e.el == nil:
			t.ctr.Add(telemetry.CtrServeLRUMisses, 1)
			t.ctr.Add(telemetry.CtrServeFlightShared, 1)
			return e, join
		case e.abbr == abbr && e.fingerprint == fp:
			t.recency.MoveToFront(e.el)
			t.ctr.Add(telemetry.CtrServeLRUHits, 1)
			return e, hit
		}
		t.ctr.Add(telemetry.CtrServeLRUMismatches, 1)
		t.recency.Remove(e.el)
	}
	t.ctr.Add(telemetry.CtrServeLRUMisses, 1)
	t.ctr.Add(telemetry.CtrServeFlightLeaders, 1)
	e := &tableEntry{key: key, abbr: abbr, fingerprint: fp, done: make(chan struct{})}
	t.entries[key] = e
	t.leaders.Add(1)
	return e, lead
}

// finish completes the entry a lead lookup filed, releasing its waiters.
// On success the entry becomes the most recently used complete one and the
// least recently used is evicted past capacity; on error the key is deleted.
func (t *profileTable) finish(e *tableEntry, p *core.Profile, err error) {
	defer t.leaders.Done()
	e.profile, e.err = p, err
	t.mu.Lock()
	if err != nil {
		delete(t.entries, e.key)
	} else {
		e.el = t.recency.PushFront(e)
		if t.recency.Len() > t.capacity {
			oldest := t.recency.Remove(t.recency.Back()).(*tableEntry)
			delete(t.entries, oldest.key)
			t.ctr.Add(telemetry.CtrServeLRUEvictions, 1)
		}
	}
	t.mu.Unlock()
	close(e.done)
}
