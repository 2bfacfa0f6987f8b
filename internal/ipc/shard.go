package ipc

import "sync"

// numShards is the lock-shard fan-out for the helper's hot caches. 16 is
// comfortably above the paper's 48-process contention point once spread by
// hash, while keeping full-map sweeps (shutdown, drop-by-value) cheap.
const numShards = 16

// mapSet stores m[k] = v, allocating the map on first use: a helper's
// tables read correctly while nil, so a picoprocess that never caches an
// owner, dials a peer or holds a queue never pays for them.
func mapSet[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// kindSet is mapSet for the helper's per-namespace-kind tables.
func kindSet[V any](m *map[int]map[int64]V, kind int, k int64, v V) {
	if (*m)[kind] == nil {
		mapSet(m, kind, make(map[int64]V))
	}
	(*m)[kind][k] = v
}

// shardedMap is a hash-sharded string-keyed map for read-mostly caches on
// the RPC hot path (peer connections, owner addresses). Lookups from
// concurrent guest threads take a per-shard mutex instead of serializing
// on the helper's global lock (Fig. 5's 48-process scaling point). The
// zero value is an empty map.
type shardedMap[V any] struct {
	shards [numShards]mapShard[V]
}

type mapShard[V any] struct {
	mu sync.Mutex
	m  map[string]V
	// Pad to a cache line so neighboring shards don't false-share.
	_ [40]byte
}

// fnv1a hashes key with 32-bit FNV-1a (inlined to keep lookups cheap).
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (s *shardedMap[V]) shard(key string) *mapShard[V] {
	return &s.shards[fnv1a(key)%numShards]
}

func (s *shardedMap[V]) get(key string) (V, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

func (s *shardedMap[V]) put(key string, v V) {
	sh := s.shard(key)
	sh.mu.Lock()
	mapSet(&sh.m, key, v)
	sh.mu.Unlock()
}

func (s *shardedMap[V]) delete(key string) {
	sh := s.shard(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// deleteValue removes every entry whose value equals v (comparable V's
// only — used to drop a dead *Conn wherever it is cached).
func (s *shardedMap[V]) deleteValue(match func(V) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			if match(v) {
				delete(sh.m, k)
			}
		}
		sh.mu.Unlock()
	}
}

// values snapshots every value in the map.
func (s *shardedMap[V]) values() []V {
	var out []V
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, v := range sh.m {
			out = append(out, v)
		}
		sh.mu.Unlock()
	}
	return out
}

// shardedIntMap is the int64-keyed variant, for PID/ID owner caches.
type shardedIntMap[V any] struct {
	shards [numShards]intShard[V]
}

type intShard[V any] struct {
	mu sync.Mutex
	m  map[int64]V
	_  [40]byte
}

// mix64 spreads sequential IDs (the common case: batched PID allocation)
// across shards (splitmix64 finalizer).
func mix64(x int64) uint64 {
	z := uint64(x)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *shardedIntMap[V]) shard(key int64) *intShard[V] {
	return &s.shards[mix64(key)%numShards]
}

func (s *shardedIntMap[V]) get(key int64) (V, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

func (s *shardedIntMap[V]) put(key int64, v V) {
	sh := s.shard(key)
	sh.mu.Lock()
	mapSet(&sh.m, key, v)
	sh.mu.Unlock()
}

func (s *shardedIntMap[V]) delete(key int64) {
	sh := s.shard(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// deleteValue removes every entry whose value matches — used to purge
// cached ownership hints pointing at a reaped member.
func (s *shardedIntMap[V]) deleteValue(match func(V) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			if match(v) {
				delete(sh.m, k)
			}
		}
		sh.mu.Unlock()
	}
}
