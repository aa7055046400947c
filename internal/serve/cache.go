package serve

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// EstimateCache is a bounded LRU from (model name, registry generation,
// canonical query bytes) to the estimate the model of that generation
// produced.
//
// It is benchmark-only code: the server does not consult it, because a
// lookup costs as much as the kernel it would save (DESIGN.md §10). The
// end-to-end benchmark (_e2ebench/layers.go) still calls QueryKey,
// NewEstimateCache, Get and Put for its cache.lookup_ns and
// workload.repeat_share layers, so this file keeps their signatures until
// a later revision of that benchmark deletes it.
//
// Keying by generation makes invalidation free and exact: a hot-swap
// bumps the registry generation, so every lookup after the swap misses by
// construction. Stale-generation entries fall off the LRU tail. The mutex
// guards only map/list pointer updates (the lockheld analyzer gates this).
type EstimateCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used; elements hold *cacheEntry
	entries map[cacheKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheKey struct {
	model string
	gen   int64
	query string // canonical query bytes (QueryKey)
}

type cacheEntry struct {
	key cacheKey
	val float64
}

// NewEstimateCache returns a cache bounded to capacity entries.
// Capacity must be positive.
func NewEstimateCache(capacity int) *EstimateCache {
	if capacity <= 0 {
		panic("serve: EstimateCache capacity must be positive")
	}
	return &EstimateCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element, capacity),
	}
}

// Get returns the cached estimate for the query under the given model
// generation, updating the hit/miss counters and LRU order.
func (c *EstimateCache) Get(model string, gen int64, query string) (float64, bool) {
	k := cacheKey{model: model, gen: gen, query: query}
	var v float64
	c.mu.Lock()
	el, ok := c.entries[k]
	if ok {
		c.ll.MoveToFront(el)
		v = el.Value.(*cacheEntry).val // under the lock: Put rewrites it in place
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return 0, false
	}
	c.hits.Add(1)
	return v, true
}

// Put records an estimate for the query under the given model generation,
// evicting the least recently used entry when full.
func (c *EstimateCache) Put(model string, gen int64, query string, v float64) {
	k := cacheKey{model: model, gen: gen, query: query}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	if c.ll.Len() >= c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).key)
	}
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, val: v})
	c.mu.Unlock()
}

// Len returns the current number of cached entries.
func (c *EstimateCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// QueryKey canonicalizes a query range into compact bytes for cache
// keying: a one-byte class tag followed by the raw IEEE-754 bits of the
// defining coordinates. Two wire queries that parse to the same geometry
// always map to the same key regardless of JSON formatting. Pointer and
// value forms of the same geometry produce identical keys — the
// zero-allocation wire decoder passes pointers into pooled arenas, while
// tests and embedders pass values. Ranges outside the three wire classes
// report ok=false and bypass the cache.
func QueryKey(r geom.Range) (string, bool) {
	switch q := r.(type) {
	case geom.Box:
		return queryKey('b', q.Lo, q.Hi), true
	case *geom.Box:
		return queryKey('b', q.Lo, q.Hi), true
	case geom.Halfspace:
		return queryKey('h', q.A, geom.Point{q.B}), true
	case *geom.Halfspace:
		return queryKey('h', q.A, geom.Point{q.B}), true
	case geom.Ball:
		return queryKey('c', q.Center, geom.Point{q.Radius}), true
	case *geom.Ball:
		return queryKey('c', q.Center, geom.Point{q.Radius}), true
	}
	return "", false
}

// queryKey is the class tag followed by the raw bits of a's then b's
// coordinates.
func queryKey(tag byte, a, b geom.Point) string {
	buf := make([]byte, 1, 1+8*(len(a)+len(b)))
	buf[0] = tag
	for _, v := range a {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	for _, v := range b {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return string(buf)
}
