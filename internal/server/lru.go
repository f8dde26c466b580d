package server

import (
	"container/list"
	"hash/fnv"

	"repro/internal/core"
	"sync"
)

// profileEntry is one cached profile together with the identity it was
// computed for. The identity is stored redundantly with the key on purpose:
// Get re-checks it, so a bookkeeping bug that files an entry under the
// wrong key surfaces as a counted mismatch instead of silently serving one
// workload's profile as another's. The load test asserts the mismatch
// count stays zero.
type profileEntry struct {
	abbr        string // workload abbreviation the profile belongs to
	fingerprint string // core.Fingerprint of the device configuration
	profile     *core.Profile
}

// shardedLRU is a fixed-capacity in-memory profile cache sharded by key
// hash, so concurrent requests contend on 1/nth of the lock space. Each
// shard is an independent LRU (map + intrusive recency list). Entries are
// immutable once inserted; readers share the stored *core.Profile.
type shardedLRU struct {
	shards []*lruShard
}

type lruShard struct {
	mu       sync.Mutex
	capacity int                      // immutable after construction
	entries  map[string]*list.Element // guarded by mu; key -> element holding *lruItem
	recency  *list.List               // guarded by mu; front = most recently used
}

type lruItem struct {
	key   string
	entry profileEntry
}

// newShardedLRU builds an LRU that holds exactly capacity entries (at least
// one) over at most nShards shards, so that no shard is empty: the first
// capacity%n of the n shards get one slot more than the rest.
func newShardedLRU(capacity, nShards int) *shardedLRU {
	capacity = max(capacity, 1)
	n := min(max(nShards, 1), capacity)
	l := &shardedLRU{shards: make([]*lruShard, n)}
	for i := range l.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		l.shards[i] = &lruShard{
			capacity: per,
			entries:  make(map[string]*list.Element),
			recency:  list.New(),
		}
	}
	return l
}

func (l *shardedLRU) shard(key string) *lruShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key)) // fnv.Write never fails
	return l.shards[h.Sum32()%uint32(len(l.shards))]
}

// get returns the entry for key, marking it most recently used.
func (l *shardedLRU) get(key string) (profileEntry, bool) {
	s := l.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return profileEntry{}, false
	}
	s.recency.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// add inserts (or refreshes) key's entry, evicting the least recently used
// entry of its shard when full. It reports how many entries were evicted
// (0 or 1).
func (l *shardedLRU) add(key string, e profileEntry) int {
	s := l.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*lruItem).entry = e
		s.recency.MoveToFront(el)
		return 0
	}
	s.entries[key] = s.recency.PushFront(&lruItem{key: key, entry: e})
	if s.recency.Len() <= s.capacity {
		return 0
	}
	oldest := s.recency.Back()
	s.recency.Remove(oldest)
	delete(s.entries, oldest.Value.(*lruItem).key)
	return 1
}

// len returns the total entry count across shards.
func (l *shardedLRU) len() int {
	n := 0
	for _, s := range l.shards {
		s.mu.Lock()
		n += s.recency.Len()
		s.mu.Unlock()
	}
	return n
}
