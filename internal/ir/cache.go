package ir

import (
	"container/list"
	"sync"

	"pneuma/internal/docs"
)

// versions is a snapshot of the mutation counters of all three sources. A
// cached result is valid only while every counter is unchanged — any
// ingest, delete, knowledge save or web toggle invalidates it.
type versions [3]uint64

// queryCache is a bounded LRU over merged query results. Conductor turns
// frequently re-issue the same retrieval request (the same (T, Q) gap is
// probed across actions and repair rounds), so a small cache removes the
// repeated shard fan-out entirely.
type queryCache struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key  string
	vers versions
	docs []docs.Document
}

func newQueryCache() *queryCache {
	return &queryCache{
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns a copy of the cached documents for key when the entry exists
// and its version snapshot still matches; a stale entry is evicted on the
// spot. Callers receive a fresh slice so they can reorder or annotate
// results without corrupting the cache.
func (c *queryCache) get(key string, vers versions) ([]docs.Document, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.vers != vers {
		c.ll.Remove(el)
		delete(c.items, key)
		return nil, false
	}
	c.ll.MoveToFront(el)
	out := make([]docs.Document, len(ent.docs))
	copy(out, ent.docs)
	return out, true
}

// put stores the documents under key, evicting the least recently used
// entry when the cache holds more than DefaultCacheSize.
func (c *queryCache) put(key string, vers versions, ds []docs.Document) {
	stored := make([]docs.Document, len(ds))
	copy(stored, ds)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.vers = vers
		ent.docs = stored
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, vers: vers, docs: stored})
	c.items[key] = el
	for c.ll.Len() > DefaultCacheSize {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
	}
}

// len reports the number of live entries (tests).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
